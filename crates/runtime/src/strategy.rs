//! The `--executor` token, and the policy argument the benchmark ledger
//! still passes to [`crate::ExecutorPool::build`].
//!
//! The pool has one scheduling policy, dependency-counter work stealing
//! ([`crate::pool`]). `ws` is its one token: the CLI flag and the serve
//! protocol key still accept it because the frozen ledger passes it, and
//! the removed level-fence token `barrier` is refused, naming `ws`.

use std::str::FromStr;

/// The policy argument of [`crate::ExecutorPool::build`]. Either value
/// builds the one work-stealing pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The paper's level fence (Figure 10), removed from the pool. The
    /// frozen benchmark ledger's traced replay still names it; the next
    /// change to the benchmark removes this variant and `build`'s
    /// parameter.
    Barrier,
    /// Dependency-counter work stealing, the pool's one policy.
    WorkStealing,
}

impl FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Strategy, String> {
        match s {
            "ws" => Ok(Strategy::WorkStealing),
            "barrier" => Err("the level-fence executor 'barrier' was removed; \
                 the one executor is 'ws' (work stealing)"
                .to_owned()),
            other => Err(format!(
                "unknown executor '{other}' (the one executor is 'ws')"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_ws_parses_and_barrier_names_it() {
        assert_eq!("ws".parse::<Strategy>(), Ok(Strategy::WorkStealing));
        for token in ["barrier", "hybrid", "work-stealing"] {
            let err = token.parse::<Strategy>().unwrap_err();
            assert!(err.contains("'ws'"), "{token}: {err}");
        }
    }
}
