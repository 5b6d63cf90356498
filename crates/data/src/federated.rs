//! Federated dataset bundles.

use crate::dataset::Dataset;

/// A federation's data: one training shard per client and a shared,
/// centralized test set (the paper evaluates global-model accuracy on
/// the dataset's standard test split).
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedDataset {
    clients: Vec<Dataset>,
    test: Dataset,
}

impl FederatedDataset {
    /// Creates a federation from per-client datasets and a test set.
    ///
    /// # Panics
    ///
    /// Panics if there are no clients, or any client's sample shape or
    /// class count differs from the test set's.
    pub fn new(clients: Vec<Dataset>, test: Dataset) -> Self {
        assert!(!clients.is_empty(), "federation needs at least one client");
        for (i, c) in clients.iter().enumerate() {
            assert_eq!(
                c.sample_dims(),
                test.sample_dims(),
                "client {i} sample shape differs from test set"
            );
            assert_eq!(
                c.classes(),
                test.classes(),
                "client {i} class count differs from test set"
            );
        }
        FederatedDataset { clients, test }
    }

    /// Creates a federation by slicing `train` according to index
    /// shards (one shard per client).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or indices are out of bounds.
    pub fn from_partition(train: Dataset, test: Dataset, shards: &[Vec<usize>]) -> Self {
        let clients = shards.iter().map(|s| train.subset(s)).collect();
        FederatedDataset::new(clients, test)
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Client `i`'s training shard.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn client(&self, i: usize) -> &Dataset {
        &self.clients[i]
    }

    /// All client shards.
    pub fn clients(&self) -> &[Dataset] {
        &self.clients
    }

    /// The shared test set.
    pub fn test(&self) -> &Dataset {
        &self.test
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(n: usize) -> Dataset {
        Dataset::new(vec![0.0; n * 2], (0..n).map(|i| i % 2).collect(), &[2], 2)
    }

    #[test]
    fn from_partition_slices() {
        let train = Dataset::new(
            vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0],
            vec![0, 1, 0, 1],
            &[2],
            2,
        );
        let fed = FederatedDataset::from_partition(train, ds(3), &[vec![0, 2], vec![1, 3]]);
        assert_eq!(fed.num_clients(), 2);
        assert_eq!(fed.client(0).sample(1), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_federation_panics() {
        let _ = FederatedDataset::new(Vec::new(), ds(2));
    }

    #[test]
    #[should_panic(expected = "class count differs")]
    fn class_mismatch_panics() {
        let c = Dataset::new(vec![0.0; 4], vec![0, 1], &[2], 2);
        let t = Dataset::new(vec![0.0; 4], vec![0, 1], &[2], 3);
        let _ = FederatedDataset::new(vec![c], t);
    }
}
