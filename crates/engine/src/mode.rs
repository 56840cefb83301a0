//! Forget-visibility modes.

use serde::{Deserialize, Serialize};

/// What query evaluation does with forgotten tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ForgetVisibility {
    /// Forgotten tuples never appear in results — the amnesia default
    /// ("data is forgotten and will never show up in query results",
    /// paper §5).
    #[default]
    ActiveOnly,
    /// The lighter option from §1: forgotten tuples are only dropped from
    /// the fast, pruning access paths ("a complete scan will fetch all
    /// data"). Range and point queries run that complete scan — every
    /// physical row, no block-meta pruning — and so still see forgotten
    /// tuples; aggregates and physical plans stay amnesiac.
    ScanSeesForgotten,
}

impl ForgetVisibility {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ForgetVisibility::ActiveOnly => "active-only",
            ForgetVisibility::ScanSeesForgotten => "scan-sees-forgotten",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_active_only() {
        assert_eq!(ForgetVisibility::default(), ForgetVisibility::ActiveOnly);
        assert_eq!(ForgetVisibility::ActiveOnly.name(), "active-only");
        assert_eq!(
            ForgetVisibility::ScanSeesForgotten.name(),
            "scan-sees-forgotten"
        );
    }
}
