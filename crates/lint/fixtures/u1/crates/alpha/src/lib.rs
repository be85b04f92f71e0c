//! U1 fixture: which of these `pub` items have a production consumer.

/// Only `crates/alpha/tests/` calls this: U1 fires.
pub fn used_by_tests_dir() {}

/// Only this file's `#[cfg(test)]` module calls this: U1 fires.
pub fn used_by_cfg_test() {}

/// Only named by `beta`'s `pub use`: a re-export is not a use, U1 fires.
pub fn reexported_only() {}

/// Called from this file alone: U1 fires (narrow it instead).
pub fn used_in_own_file_only() {}

/// Another crate's `src` calls this: silent.
pub fn used_by_other_crate() {}

/// `examples/` calls this: silent.
pub fn used_by_example() {}

/// `perf/src` calls this: silent.
pub fn used_by_perf() {}

/// Named only in the signature of `make`, which beta uses: silent.
pub struct Exposed;

/// Beta calls this: silent.
pub fn make() -> Exposed {
    used_in_own_file_only();
    Exposed
}

/// Not bare `pub`: never checked.
pub(crate) fn crate_visible() {}

#[cfg(test)]
mod tests {
    #[test]
    fn calls() {
        super::used_by_cfg_test();
        super::crate_visible();
    }
}
