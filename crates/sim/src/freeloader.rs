//! Client behaviours: honest clients and the paper's lazy freeloaders.
//! The behaviour vector is the ground truth the detection scoreboard
//! ([`crate::detection`]) scores against.

/// What a client actually does when asked to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClientBehavior {
    /// Runs the algorithm's local-update rule honestly.
    #[default]
    Honest,
    /// A lazy freeloader (Section IV-A of the paper): uploads the
    /// previous round's global update as its own `Δ_i^t`, performing no
    /// local computation. Round 0, with no previous update, uploads
    /// zeros.
    Freeloader,
}

impl ClientBehavior {
    /// `true` for [`ClientBehavior::Freeloader`], the detection
    /// scoreboard's ground-truth positive class.
    pub fn is_freeloader(self) -> bool {
        matches!(self, ClientBehavior::Freeloader)
    }
}

/// Builds a behaviour vector with the first `n_freeloaders` clients
/// replaced by freeloaders (the paper replaces 8 of 20).
///
/// # Panics
///
/// Panics if `n_freeloaders > n_clients`.
pub fn with_freeloaders(n_clients: usize, n_freeloaders: usize) -> Vec<ClientBehavior> {
    assert!(
        n_freeloaders <= n_clients,
        "{n_freeloaders} freeloaders exceed {n_clients} clients"
    );
    (0..n_clients)
        .map(|i| {
            if i < n_freeloaders {
                ClientBehavior::Freeloader
            } else {
                ClientBehavior::Honest
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_honest() {
        assert_eq!(ClientBehavior::default(), ClientBehavior::Honest);
        assert!(!ClientBehavior::Honest.is_freeloader());
        assert!(ClientBehavior::Freeloader.is_freeloader());
    }

    #[test]
    fn with_freeloaders_places_them_first() {
        let b = with_freeloaders(5, 2);
        assert_eq!(b.iter().filter(|x| x.is_freeloader()).count(), 2);
        assert!(b[0].is_freeloader() && b[1].is_freeloader());
        assert!(!b[4].is_freeloader());
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_freeloaders_panics() {
        let _ = with_freeloaders(3, 4);
    }
}
