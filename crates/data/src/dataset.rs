//! In-memory labelled datasets.

use taco_nn::Batch;
use taco_tensor::{Prng, Tensor};

/// A labelled classification dataset stored as flat `f32` features.
///
/// Samples all share one `sample_dims` shape (e.g. `[1, 28, 28]` for
/// grayscale images, `[14]` for tabular rows, `[seq_len]` for symbol
/// sequences).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Vec<f32>,
    labels: Vec<usize>,
    sample_dims: Vec<usize>,
    classes: usize,
}

/// A train/test dataset pair produced by the generators.
#[derive(Debug, Clone)]
pub struct TrainTest {
    /// Training split.
    pub train: Dataset,
    /// Held-out test split.
    pub test: Dataset,
}

impl Dataset {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the feature length is not `labels.len() ·
    /// sample_dims.product()`, if `classes` is zero, or if any label is
    /// out of range.
    pub fn new(
        features: Vec<f32>,
        labels: Vec<usize>,
        sample_dims: &[usize],
        classes: usize,
    ) -> Self {
        let per: usize = sample_dims.iter().product();
        assert!(classes > 0, "dataset needs at least one class");
        assert_eq!(
            features.len(),
            labels.len() * per,
            "feature length {} != {} samples x {} values",
            features.len(),
            labels.len(),
            per
        );
        assert!(
            labels.iter().all(|&l| l < classes),
            "label out of range for {classes} classes"
        );
        Dataset {
            features,
            labels,
            sample_dims: sample_dims.to_vec(),
            classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Per-sample feature shape.
    pub fn sample_dims(&self) -> &[usize] {
        &self.sample_dims
    }

    /// Scalar feature count per sample.
    pub fn sample_len(&self) -> usize {
        self.sample_dims.iter().product()
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The features of sample `i`.
    pub fn sample(&self, i: usize) -> &[f32] {
        let n = self.sample_len();
        &self.features[i * n..(i + 1) * n]
    }

    /// Builds a [`Batch`] from sample indices.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> Batch {
        assert!(!indices.is_empty(), "empty batch");
        let per = self.sample_len();
        let mut data = Vec::with_capacity(indices.len() * per);
        let mut targets = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(self.sample(i));
            targets.push(self.labels[i]);
        }
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(&self.sample_dims);
        Batch::new(Tensor::from_vec(data, &dims[..]), targets)
    }

    /// Splits the dataset into sequential batches of at most
    /// `batch_size` samples (used for evaluation).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn eval_batches(&self, batch_size: usize) -> Vec<Batch> {
        assert!(batch_size > 0, "batch_size must be positive");
        let idx: Vec<usize> = (0..self.len()).collect();
        idx.chunks(batch_size).map(|c| self.batch(c)).collect()
    }

    /// Draws a uniform mini-batch with replacement, matching the
    /// paper's mini-batch SGD setting (Eq. 3).
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `batch_size` is zero.
    pub fn sample_batch(&self, batch_size: usize, rng: &mut Prng) -> Batch {
        assert!(!self.is_empty(), "cannot sample from an empty dataset");
        assert!(batch_size > 0, "batch_size must be positive");
        let indices: Vec<usize> = (0..batch_size).map(|_| rng.below(self.len())).collect();
        self.batch(&indices)
    }

    /// Creates a new dataset from a subset of sample indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let per = self.sample_len();
        let mut features = Vec::with_capacity(indices.len() * per);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            features.extend_from_slice(self.sample(i));
            labels.push(self.labels[i]);
        }
        Dataset {
            features,
            labels,
            sample_dims: self.sample_dims.clone(),
            classes: self.classes,
        }
    }

    /// Per-class sample counts.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.classes];
        for &l in &self.labels {
            h[l] += 1;
        }
        h
    }

    /// Number of distinct labels present.
    pub fn distinct_labels(&self) -> usize {
        self.class_histogram().iter().filter(|&&c| c > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn four_samples() -> Dataset {
        Dataset::new(
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            vec![0, 1, 0, 1],
            &[2],
            2,
        )
    }

    #[test]
    fn accessors() {
        let d = four_samples();
        assert_eq!(d.len(), 4);
        assert_eq!(d.classes(), 2);
        assert_eq!(d.sample(2), &[4.0, 5.0]);
        assert_eq!(d.class_histogram(), vec![2, 2]);
        assert_eq!(d.distinct_labels(), 2);
    }

    #[test]
    fn batch_builds_tensor_with_sample_dims() {
        let d = four_samples();
        let b = d.batch(&[1, 3]);
        assert_eq!(b.inputs().dims(), &[2, 2]);
        assert_eq!(b.targets(), &[1, 1]);
        assert_eq!(b.sample(0), &[2.0, 3.0]);
    }

    #[test]
    fn eval_batches_cover_everything() {
        let d = four_samples();
        let bs = d.eval_batches(3);
        assert_eq!(bs.len(), 2);
        assert_eq!(bs[0].len() + bs[1].len(), 4);
    }

    #[test]
    fn sample_batch_is_deterministic() {
        let d = four_samples();
        let mut r1 = Prng::seed_from_u64(3);
        let mut r2 = Prng::seed_from_u64(3);
        assert_eq!(d.sample_batch(5, &mut r1), d.sample_batch(5, &mut r2));
    }

    #[test]
    fn subset_selects_rows() {
        let d = four_samples();
        let s = d.subset(&[3, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.sample(0), &[6.0, 7.0]);
        assert_eq!(s.labels(), &[1, 0]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_panics() {
        let _ = Dataset::new(vec![0.0], vec![5], &[1], 2);
    }

    #[test]
    #[should_panic(expected = "feature length")]
    fn bad_feature_length_panics() {
        let _ = Dataset::new(vec![0.0; 5], vec![0, 1], &[2], 2);
    }
}
