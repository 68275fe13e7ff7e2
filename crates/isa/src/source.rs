//! Source locations for static instructions.
//!
//! The paper's Table 5 profile maps each hot load back to the C source
//! (`fast_algorithms.c:132`, function `P7Viterbi`). Our instrumented
//! kernels do the same: every traced operation carries the Rust source
//! location of the statement that emitted it.

use std::fmt;
use std::hash::{Hash, Hasher};

/// A source-code location identifying where a static instruction lives.
///
/// Two instructions at the same `(file, line, column)` are the same static
/// instruction; the tracing layer uses this to intern [`StaticId`]s.
///
/// Equality compares all four fields by content. [`Hash`] feeds only
/// `line` and `column`, so hashing a location never reads a string:
/// equal locations still hash equally, and sites that share a line and
/// column in different files or functions are told apart by `Eq`.
///
/// [`StaticId`]: crate::StaticId
///
/// # Example
///
/// ```
/// use bioperf_isa::SrcLoc;
///
/// let loc = SrcLoc::new("fast_algorithms.rs", 132, 9, "p7_viterbi");
/// assert_eq!(loc.to_string(), "p7_viterbi (fast_algorithms.rs:132)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SrcLoc {
    /// File name, typically from `file!()`.
    pub file: &'static str,
    /// 1-based line, typically from `line!()`.
    pub line: u32,
    /// 1-based column, typically from `column!()`; disambiguates several
    /// operations emitted from one line.
    pub column: u32,
    /// Enclosing function name, supplied by the instrumented kernel.
    pub function: &'static str,
}

impl SrcLoc {
    /// Creates a source location.
    pub const fn new(file: &'static str, line: u32, column: u32, function: &'static str) -> Self {
        Self { file, line, column, function }
    }

    /// A placeholder location for synthesized operations (e.g. spill code
    /// inserted by the register-pressure model).
    pub const fn synthetic(function: &'static str) -> Self {
        Self { file: "<synthetic>", line: 0, column: 0, function }
    }
}

impl Hash for SrcLoc {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from(self.line) << 32 | u64::from(self.column));
    }
}

impl fmt::Display for SrcLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}:{})", self.function, self.file, self.line)
    }
}

/// Captures the current source location as a [`SrcLoc`].
///
/// The function name must be supplied because Rust has no stable
/// `function!()` macro.
///
/// # Example
///
/// ```
/// use bioperf_isa::here;
///
/// let loc = here!("my_kernel");
/// assert_eq!(loc.function, "my_kernel");
/// ```
#[macro_export]
macro_rules! here {
    ($function:expr) => {
        $crate::SrcLoc::new(file!(), line!(), column!(), $function)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_function_and_line() {
        let loc = SrcLoc::new("a.rs", 7, 3, "f");
        assert_eq!(format!("{loc}"), "f (a.rs:7)");
    }

    #[test]
    fn here_captures_this_file() {
        let loc = here!("test_fn");
        assert!(loc.file.ends_with("source.rs"));
        assert_eq!(loc.function, "test_fn");
        assert!(loc.line > 0);
    }

    #[test]
    fn synthetic_is_distinct_from_real_locations() {
        let synth = SrcLoc::synthetic("spill");
        assert_eq!(synth.file, "<synthetic>");
        assert_ne!(synth, here!("spill"));
    }

    #[test]
    fn same_site_compares_equal() {
        let a = SrcLoc::new("k.rs", 10, 2, "f");
        let b = SrcLoc::new("k.rs", 10, 2, "f");
        assert_eq!(a, b);
    }

    #[test]
    fn different_columns_differ() {
        let a = SrcLoc::new("k.rs", 10, 2, "f");
        let b = SrcLoc::new("k.rs", 10, 9, "f");
        assert_ne!(a, b);
    }
}
