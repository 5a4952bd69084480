//! Minimal flag parsing shared by the experiment binaries.

use std::collections::HashMap;
use std::fmt::Display;

use vortex_sim::{DeviceConfig, ParseTopologyError};

use crate::campaign::{kernel_factories, KernelFactory, Scale};

/// Parsed `--key value` flags and bare positional arguments.
///
/// # Examples
///
/// ```
/// use vortex_bench::cli::Flags;
/// let flags = Flags::parse(["--configs", "32", "--paper-scale"].map(String::from));
/// assert_eq!(flags.get_usize("configs", 450), Ok(32));
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

    /// A `--key value` as usize, `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// A message naming the flag and a value that is not a non-negative
    /// integer, for [`or_exit`] to report.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get_str(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid --{key} `{v}` (expected a non-negative integer)")),
        }
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

/// The kernels a `--kernels a,b` list names, in [`kernel_factories`]
/// order; all of them when `wanted` is `None`.
///
/// # Errors
///
/// A message naming the first unknown kernel and the valid names, for
/// [`or_exit`] to report: a typo must not quietly select nothing.
pub fn select_kernels(
    scale: Scale,
    wanted: Option<&[String]>,
) -> Result<Vec<KernelFactory>, String> {
    let factories = kernel_factories(scale);
    let Some(wanted) = wanted else { return Ok(factories) };
    if let Some(unknown) = wanted.iter().find(|w| factories.iter().all(|f| f.name != *w)) {
        let valid: Vec<_> = factories.iter().map(|f| f.name).collect();
        return Err(format!("unknown kernel `{unknown}` (valid: {})", valid.join(", ")));
    }
    Ok(factories.into_iter().filter(|f| wanted.iter().any(|w| w == f.name)).collect())
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
        assert_eq!(f.get_usize("jobs", 1), Ok(8));
        assert_eq!(f.get_str("csv"), Some("out.csv"));
        assert!(f.has("verbose"));
        assert_eq!(f.get_list("kernels").unwrap(), vec!["vecadd", "relu"]);
        assert!(!f.has("missing"));
        assert_eq!(f.get_usize("missing", 7), Ok(7));
    }

    #[test]
    fn malformed_numbers_are_errors_not_defaults() {
        for bad in ["2O", "-1", ""] {
            let f = Flags::parse(["--configs", bad].map(String::from));
            let err = f.get_usize("configs", 450).expect_err(bad);
            assert!(err.contains(&format!("--configs `{bad}`")), "{err}");
        }
    }

    #[test]
    fn unknown_kernels_are_errors_naming_the_valid_ones() {
        let names = |ks: &[&str]| {
            let wanted: Vec<String> = ks.iter().map(|k| k.to_string()).collect();
            select_kernels(Scale::Sweep, Some(&wanted))
                .map(|fs| fs.iter().map(|f| f.name).collect::<Vec<_>>())
        };
        assert_eq!(names(&["relu", "vecadd"]).unwrap(), ["vecadd", "relu"]);
        let err = names(&["vecadd", "vecad"]).unwrap_err();
        assert!(err.contains("`vecad`") && err.contains("vecadd, relu, saxpy"), "{err}");
        assert!(names(&[""]).is_err(), "an empty name selects nothing, so it is an error");
        assert_eq!(select_kernels(Scale::Sweep, None).unwrap().len(), 10);
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
