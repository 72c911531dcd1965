//! The execution-policy switch (`omc simulate --executor {barrier,ws}`).
//!
//! Both values run on the one executor core, [`crate::pool`]; see its
//! module docs for what each policy does to the deques.

use std::fmt;
use std::str::FromStr;

/// How [`crate::ExecutorPool`] schedules the task graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Level fences and static assignment (paper Figure 10): a level's
    /// tasks become ready only when the previous level has drained, and
    /// run on the worker they were assigned to. The Fig. 10/12
    /// reproduction mode.
    #[default]
    Barrier,
    /// Dependency-counter work stealing: no fence, tasks start the
    /// moment their predecessors finish, idle workers steal.
    WorkStealing,
}

impl Strategy {
    /// Stable CLI/JSON token for this strategy.
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::Barrier => "barrier",
            Strategy::WorkStealing => "ws",
        }
    }

    /// All strategies, for sweeps and CLI help text.
    pub const ALL: [Strategy; 2] = [Strategy::Barrier, Strategy::WorkStealing];
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Strategy, String> {
        match s {
            "barrier" => Ok(Strategy::Barrier),
            "ws" | "work-stealing" | "worksteal" => Ok(Strategy::WorkStealing),
            other => Err(format!(
                "unknown executor '{other}' (expected 'barrier' or 'ws')"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_round_trips_through_str() {
        for s in Strategy::ALL {
            assert_eq!(s.as_str().parse::<Strategy>().unwrap(), s);
        }
        assert!("hybrid".parse::<Strategy>().is_err());
        assert_eq!(Strategy::default(), Strategy::Barrier);
    }
}
