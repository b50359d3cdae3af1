//! Protocol configuration.

use std::fmt;

use dtn_sim::FaultPlan;

/// Cooperation mode: altruistic or tit-for-tat (paper §IV-A/B, §V-A/B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CooperationMode {
    /// All nodes altruistically serve the most-requested content first.
    #[default]
    Cooperative,
    /// Nodes weigh requesters by tit-for-tat credits; cliques broadcast in a
    /// shared cyclic order instead of trusting a coordinator.
    TitForTat,
}

impl fmt::Display for CooperationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CooperationMode::Cooperative => write!(f, "cooperative"),
            CooperationMode::TitForTat => write!(f, "tit-for-tat"),
        }
    }
}

/// How a cooperative clique orders its broadcasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BroadcastOrdering {
    /// The paper's §V-A order: requested items first (most requesters,
    /// then popularity), then unrequested by popularity.
    #[default]
    TwoPhase,
    /// BitTorrent-style rarest-first (extension): fewest holders first,
    /// then the two-phase keys (see
    /// [`cooperative::schedule`](crate::download::cooperative::schedule)).
    ///
    /// # Example
    ///
    /// ```
    /// use mbt_core::download::{cooperative, Offer};
    /// use mbt_core::{BroadcastOrdering, Popularity, Uri};
    /// use dtn_trace::NodeId;
    ///
    /// let n = NodeId::new;
    /// let common = Offer::new(Uri::new("mbt://common")?, Popularity::MAX,
    ///     vec![n(5)], vec![n(0), n(1), n(2)]);
    /// let rare = Offer::new(Uri::new("mbt://rare")?, Popularity::MIN,
    ///     vec![n(5)], vec![n(0)]);
    /// let schedule = cooperative::schedule(vec![common, rare], 2, BroadcastOrdering::RarestFirst);
    /// assert_eq!(schedule[0].item.as_str(), "mbt://rare");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    RarestFirst,
}

impl fmt::Display for BroadcastOrdering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BroadcastOrdering::TwoPhase => write!(f, "two-phase"),
            BroadcastOrdering::RarestFirst => write!(f, "rarest-first"),
        }
    }
}

/// Tunable parameters of an MBT node.
///
/// Defaults follow the experiment defaults in `DESIGN.md`: 20 metadata and 4
/// files per contact, discovery before download, cooperative mode.
///
/// # Example
///
/// ```
/// use mbt_core::{CooperationMode, MbtConfig};
///
/// let config = MbtConfig::new()
///     .metadata_per_contact(10)
///     .files_per_contact(2)
///     .cooperation(CooperationMode::TitForTat);
/// assert_eq!(config.metadata_per_contact_value(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MbtConfig {
    metadata_per_contact: u32,
    files_per_contact: u32,
    cooperation: CooperationMode,
    ordering: BroadcastOrdering,
    discovery_first: bool,
    min_download_contact_secs: u64,
    faults: FaultPlan,
}

impl Default for MbtConfig {
    fn default() -> Self {
        MbtConfig {
            metadata_per_contact: 20,
            files_per_contact: 4,
            cooperation: CooperationMode::Cooperative,
            ordering: BroadcastOrdering::TwoPhase,
            discovery_first: true,
            min_download_contact_secs: 0,
            faults: FaultPlan::none(),
        }
    }
}

impl MbtConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        MbtConfig::default()
    }

    /// Sets how many metadata may be broadcast per contact (paper §VI-A).
    pub fn metadata_per_contact(mut self, n: u32) -> Self {
        self.metadata_per_contact = n;
        self
    }

    /// Sets how many files may be broadcast per contact (paper §VI-A).
    pub fn files_per_contact(mut self, n: u32) -> Self {
        self.files_per_contact = n;
        self
    }

    /// Sets the cooperation mode.
    pub fn cooperation(mut self, mode: CooperationMode) -> Self {
        self.cooperation = mode;
        self
    }

    /// Sets the broadcast ordering used in cooperative mode (the tit-for-tat
    /// scheduler always orders by credit weight).
    pub fn ordering(mut self, ordering: BroadcastOrdering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Whether metadata exchange precedes file exchange within a contact
    /// (paper §V: discovery uses the starting period of each connection).
    pub fn discovery_first(mut self, first: bool) -> Self {
        self.discovery_first = first;
        self
    }

    /// Contacts shorter than this skip the file phase entirely (0 = never
    /// skip; an ablation knob for the short-contact argument of §V).
    pub fn min_download_contact_secs(mut self, secs: u64) -> Self {
        self.min_download_contact_secs = secs;
        self
    }

    /// Installs the fault-injection plan (loss, truncation, churn,
    /// corruption) — the one way to set any of them.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Metadata broadcast slots per contact.
    pub fn metadata_per_contact_value(&self) -> u32 {
        self.metadata_per_contact
    }

    /// File broadcast slots per contact.
    pub fn files_per_contact_value(&self) -> u32 {
        self.files_per_contact
    }

    /// The cooperation mode.
    pub fn cooperation_value(&self) -> CooperationMode {
        self.cooperation
    }

    /// The cooperative broadcast ordering.
    pub fn ordering_value(&self) -> BroadcastOrdering {
        self.ordering
    }

    /// Whether discovery precedes download within a contact.
    pub fn discovery_first_value(&self) -> bool {
        self.discovery_first
    }

    /// Minimum contact length for the file phase, in seconds.
    pub fn min_download_contact_secs_value(&self) -> u64 {
        self.min_download_contact_secs
    }

    /// The fault-injection plan.
    pub fn faults_value(&self) -> FaultPlan {
        self.faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_design() {
        let c = MbtConfig::default();
        assert_eq!(c.metadata_per_contact_value(), 20);
        assert_eq!(c.files_per_contact_value(), 4);
        assert_eq!(c.cooperation_value(), CooperationMode::Cooperative);
        assert!(c.discovery_first_value());
        assert_eq!(c.min_download_contact_secs_value(), 0);
    }

    #[test]
    fn builder_chains() {
        let c = MbtConfig::new()
            .metadata_per_contact(3)
            .files_per_contact(1)
            .cooperation(CooperationMode::TitForTat)
            .discovery_first(false)
            .min_download_contact_secs(30);
        assert_eq!(c.metadata_per_contact_value(), 3);
        assert_eq!(c.files_per_contact_value(), 1);
        assert_eq!(c.cooperation_value(), CooperationMode::TitForTat);
        assert!(!c.discovery_first_value());
        assert_eq!(c.min_download_contact_secs_value(), 30);
    }

    #[test]
    fn faults_builder_installs_a_full_plan() {
        let plan = FaultPlan::none().loss(0.1).truncate(0.2).churn(0.3).seed(4);
        let c = MbtConfig::new().faults(plan);
        assert_eq!(c.faults_value(), plan);
        assert!(MbtConfig::new().faults_value().is_noop());
    }

    #[test]
    fn cooperation_display() {
        assert_eq!(CooperationMode::Cooperative.to_string(), "cooperative");
        assert_eq!(CooperationMode::TitForTat.to_string(), "tit-for-tat");
    }

    #[test]
    fn ordering_defaults_and_builder() {
        assert_eq!(
            MbtConfig::new().ordering_value(),
            BroadcastOrdering::TwoPhase
        );
        let c = MbtConfig::new().ordering(BroadcastOrdering::RarestFirst);
        assert_eq!(c.ordering_value(), BroadcastOrdering::RarestFirst);
        assert_eq!(BroadcastOrdering::TwoPhase.to_string(), "two-phase");
        assert_eq!(BroadcastOrdering::RarestFirst.to_string(), "rarest-first");
    }
}
