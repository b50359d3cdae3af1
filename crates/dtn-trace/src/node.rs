//! Node identifiers.

use std::fmt;

/// Identifier of a node (a mobile device) in a delay tolerant network.
///
/// `NodeId` is a cheap `Copy` newtype over `u32`. Identifiers are dense in
/// practice (traces number their nodes `0..n`), which lets downstream code use
/// them as vector indices via [`NodeId::index`].
///
/// # Example
///
/// ```
/// use dtn_trace::NodeId;
///
/// let a = NodeId::new(3);
/// assert_eq!(a.index(), 3);
/// assert_eq!(a.to_string(), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from its raw value.
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Returns the raw value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the identifier as a `usize`, suitable for indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn round_trips_raw_value() {
        let id = NodeId::new(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(u32::from(id), 42);
        assert_eq!(NodeId::from(42u32), id);
    }

    #[test]
    fn index_matches_raw() {
        assert_eq!(NodeId::new(7).index(), 7usize);
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(NodeId::new(0).to_string(), "n0");
    }

    #[test]
    fn ordering_follows_raw() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }

    #[test]
    fn usable_in_hash_set() {
        let set: HashSet<NodeId> = (0..4).map(NodeId::new).collect();
        assert_eq!(set.len(), 4);
        assert!(set.contains(&NodeId::new(3)));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NodeId::default(), NodeId::new(0));
    }
}
