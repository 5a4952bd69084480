//! Minimal flag parsing shared by the experiment binaries.

use std::collections::HashMap;
use std::fmt::Display;

use vortex_sim::{DeviceConfig, ParseTopologyError};

/// Parsed `--key value` flags and bare positional arguments.
///
/// # Examples
///
/// ```
/// use vortex_bench::cli::Flags;
/// let flags = Flags::parse(["--configs", "32", "--paper-scale"].map(String::from));
/// assert_eq!(flags.get_usize("configs", 450), 32);
/// assert!(flags.has("paper-scale"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses an iterator of arguments (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut values = HashMap::new();
        let mut switches = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let takes_value = iter.peek().map(|next| !next.starts_with("--")).unwrap_or(false);
                if takes_value {
                    values.insert(key.to_owned(), iter.next().expect("peeked"));
                } else {
                    switches.push(key.to_owned());
                }
            }
        }
        Flags { values, switches }
    }

    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Flags::parse(std::env::args().skip(1))
    }

    /// Whether a bare `--flag` switch was given.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// A `--key value` as usize, with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.values.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// A `--key value` as string.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A `--key CcWwTt[xN]` topology, `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// The parse error of a malformed value, for [`or_exit`] to report.
    pub fn get_topology(
        &self,
        key: &str,
        default: &str,
    ) -> Result<DeviceConfig, ParseTopologyError> {
        self.get_str(key).unwrap_or(default).parse()
    }

    /// A comma-separated `--key a,b,c` list.
    pub fn get_list(&self, key: &str) -> Option<Vec<String>> {
        self.values.get(key).map(|v| v.split(',').map(|s| s.trim().to_owned()).collect())
    }
}

/// Unwraps a parsed command-line value; a malformed one prints its error
/// on stderr and exits with status 2. Release builds abort on panic, so
/// user input must not reach an `expect`.
pub fn or_exit<T, E: Display>(parsed: Result<T, E>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Default worker-thread count: the machine's parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_flags_parse() {
        let f = Flags::parse(
            ["--jobs", "8", "--csv", "out.csv", "--verbose", "--kernels", "vecadd,relu"]
                .map(String::from),
        );
        assert_eq!(f.get_usize("jobs", 1), 8);
        assert_eq!(f.get_str("csv"), Some("out.csv"));
        assert!(f.has("verbose"));
        assert_eq!(f.get_list("kernels").unwrap(), vec!["vecadd", "relu"]);
        assert!(!f.has("missing"));
        assert_eq!(f.get_usize("missing", 7), 7);
    }

    #[test]
    fn malformed_topologies_are_errors_not_panics() {
        for bad in ["", "4c8w", "4c8w8tx0"] {
            let f = Flags::parse(["--topo", bad].map(String::from));
            let err = f.get_topology("topo", "1c2w4t").expect_err(bad);
            assert!(err.to_string().contains(&format!("`{bad}`")), "{err}");
        }
        let f = Flags::parse(["--topo", "4c8w8tx2"].map(String::from));
        assert_eq!(f.get_topology("topo", "1c2w4t").unwrap().topology_name(), "4c8w8tx2");
        assert_eq!(f.get_topology("other", "1c2w4t").unwrap().topology_name(), "1c2w4t");
    }

    #[test]
    fn trailing_switch_is_a_switch() {
        let f = Flags::parse(["--paper-scale"].map(String::from));
        assert!(f.has("paper-scale"));
    }
}
