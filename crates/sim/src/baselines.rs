//! The three operating modes the paper compares (Section V-B).
//!
//! A mode is a name and one predicate; what each one *runs* is the
//! stage table in [`crate::pipeline::build`], and the engine's slot
//! loop never branches on the mode.

use serde::{Deserialize, Serialize};

/// How the data center allocates power each slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// The status quo: no spot capacity is offered; every tenant caps
    /// its power at its guaranteed capacity at all times. Used as the
    /// normalization reference for cost, profit and performance.
    PowerCapped,
    /// The paper's proposal: demand-function bidding and uniform-price
    /// clearing allocate spot capacity every slot.
    SpotDc,
    /// The owner-operated upper bound: the operator knows every
    /// tenant's gain curve and allocates spot capacity to maximize
    /// total performance gain, with no payments (power routing \[9\]).
    MaxPerf,
}

impl Mode {
    /// Whether this mode sells spot capacity for money.
    #[must_use]
    pub fn has_market(self) -> bool {
        matches!(self, Mode::SpotDc)
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::PowerCapped => write!(f, "PowerCapped"),
            Mode::SpotDc => write!(f, "SpotDC"),
            Mode::MaxPerf => write!(f, "MaxPerf"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(!Mode::PowerCapped.has_market());
        assert!(Mode::SpotDc.has_market());
        assert!(!Mode::MaxPerf.has_market());
    }

    #[test]
    fn mode_display() {
        assert_eq!(Mode::SpotDc.to_string(), "SpotDC");
    }
}
