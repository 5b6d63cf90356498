//! Non-IID partitioners.
//!
//! These implement the paper's three client-data layouts:
//!
//! - [`dirichlet`] — `Dir(φ)` label-distribution skew (Table IV uses
//!   φ ∈ {0.1, 0.2, 0.5}), the standard protocol of Li et al. and many
//!   FL studies: for every class, the class's samples are split across
//!   clients with Dirichlet-distributed proportions.
//! - [`synthetic_groups`] — the Group A/B/C split of Section IV-A /
//!   Table II: Group A clients see 10% of the labels, Group B 20%,
//!   Group C 50%, with the label subsets drawn at random per client.
//! - [`iid`] — uniform shuffle, the control setting.
//!
//! All partitioners return index shards that form a partition of the
//! input (every sample appears in exactly one shard; property-tested),
//! and every client is guaranteed at least one sample.

use taco_tensor::Prng;

/// Describes the paper's synthetic label-diversity groups (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiversityGroup {
    /// 10% of labels per client.
    A,
    /// 20% of labels per client.
    B,
    /// 50% of labels per client.
    C,
}

impl DiversityGroup {
    /// Fraction of the label space a client in this group sees.
    pub fn label_fraction(self) -> f64 {
        match self {
            DiversityGroup::A => 0.10,
            DiversityGroup::B => 0.20,
            DiversityGroup::C => 0.50,
        }
    }
}

fn count_classes(labels: &[usize]) -> usize {
    labels.iter().copied().max().map_or(0, |m| m + 1)
}

fn indices_by_class(labels: &[usize], classes: usize) -> Vec<Vec<usize>> {
    let mut by_class = vec![Vec::new(); classes];
    for (i, &l) in labels.iter().enumerate() {
        by_class[l].push(i);
    }
    by_class
}

/// Moves samples around so no shard is empty (steals one sample from
/// the largest shard for each empty one).
fn fix_empty_shards(shards: &mut [Vec<usize>]) {
    loop {
        let Some(empty) = shards.iter().position(|s| s.is_empty()) else {
            return;
        };
        // `empty` was found above, so `shards` is non-empty and
        // max_by_key must yield a winner; the let-else keeps this
        // panic-free either way.
        let Some(largest) = shards
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.len())
            .map(|(i, _)| i)
        else {
            return;
        };
        if shards[largest].len() <= 1 {
            // Not enough samples to cover all clients; leave remaining
            // shards empty rather than loop forever.
            return;
        }
        let Some(moved) = shards[largest].pop() else {
            return;
        };
        shards[empty].push(moved);
    }
}

/// IID partition: shuffles the indices and deals them round-robin.
///
/// # Panics
///
/// Panics if `n_clients` is zero.
pub fn iid(labels: &[usize], n_clients: usize, rng: &mut Prng) -> Vec<Vec<usize>> {
    assert!(n_clients > 0, "need at least one client");
    let mut idx: Vec<usize> = (0..labels.len()).collect();
    rng.shuffle(&mut idx);
    let mut shards = vec![Vec::new(); n_clients];
    for (pos, i) in idx.into_iter().enumerate() {
        shards[pos % n_clients].push(i);
    }
    shards
}

/// `Dir(φ)` label-skew partition.
///
/// For each class, draws client proportions from `Dirichlet(φ·1)` and
/// multinomially assigns that class's samples accordingly. Smaller `φ`
/// ⇒ more skew (each class concentrated on few clients).
///
/// # Panics
///
/// Panics if `n_clients` is zero or `phi <= 0`.
pub fn dirichlet(labels: &[usize], n_clients: usize, phi: f64, rng: &mut Prng) -> Vec<Vec<usize>> {
    assert!(n_clients > 0, "need at least one client");
    assert!(phi > 0.0, "phi must be positive, got {phi}");
    let classes = count_classes(labels);
    let mut shards = vec![Vec::new(); n_clients];
    for class_indices in indices_by_class(labels, classes) {
        if class_indices.is_empty() {
            continue;
        }
        let props = rng.dirichlet(phi, n_clients);
        for i in class_indices {
            shards[rng.categorical(&props)].push(i);
        }
    }
    fix_empty_shards(&mut shards);
    shards
}

/// Assigns each of `n_clients` clients to a diversity group, splitting
/// them as evenly as possible across A, B, C in order.
pub fn assign_groups(n_clients: usize) -> Vec<DiversityGroup> {
    (0..n_clients)
        .map(|i| match i * 3 / n_clients.max(1) {
            0 => DiversityGroup::A,
            1 => DiversityGroup::B,
            _ => DiversityGroup::C,
        })
        .collect()
}

/// The paper's synthetic Group A/B/C label-diversity partition
/// (Section IV-A): each client draws a random label subset whose size
/// is its group's fraction of the label space (at least one label);
/// each class's samples are then dealt uniformly among the clients
/// that own that label.
///
/// Returns the shards and the group assignment used.
///
/// # Panics
///
/// Panics if `n_clients` is zero.
pub fn synthetic_groups(
    labels: &[usize],
    n_clients: usize,
    rng: &mut Prng,
) -> (Vec<Vec<usize>>, Vec<DiversityGroup>) {
    assert!(n_clients > 0, "need at least one client");
    let classes = count_classes(labels);
    let groups = assign_groups(n_clients);
    // Draw each client's label subset.
    let mut owners: Vec<Vec<usize>> = vec![Vec::new(); classes]; // class -> clients
    let mut client_labels: Vec<Vec<usize>> = Vec::with_capacity(n_clients);
    for (c, g) in groups.iter().enumerate() {
        let k = ((classes as f64 * g.label_fraction()).round() as usize).max(1);
        let subset = rng.sample_indices(classes, k.min(classes));
        for &label in &subset {
            owners[label].push(c);
        }
        client_labels.push(subset);
    }
    // Every class needs at least one owner; orphaned classes go to a
    // random Group C client (most diverse data, least distortion).
    for (label, o) in owners.iter_mut().enumerate() {
        if o.is_empty() {
            let candidates: Vec<usize> = groups
                .iter()
                .enumerate()
                .filter(|(_, g)| **g == DiversityGroup::C)
                .map(|(i, _)| i)
                .collect();
            let pick = if candidates.is_empty() {
                rng.below(n_clients)
            } else {
                candidates[rng.below(candidates.len())]
            };
            o.push(pick);
            client_labels[pick].push(label);
        }
    }
    // Deal samples.
    let mut shards = vec![Vec::new(); n_clients];
    for (class, class_indices) in indices_by_class(labels, classes).into_iter().enumerate() {
        let o = &owners[class];
        if o.is_empty() {
            continue;
        }
        for i in class_indices {
            shards[o[rng.below(o.len())]].push(i);
        }
    }
    fix_empty_shards(&mut shards);
    (shards, groups)
}

/// Measures label-distribution skew of a partition: the mean total
/// variation distance between each shard's label distribution and the
/// global one. 0 = perfectly IID; approaches 1 under extreme skew.
pub fn skew_statistic(labels: &[usize], shards: &[Vec<usize>]) -> f64 {
    let classes = count_classes(labels);
    if classes == 0 || labels.is_empty() {
        return 0.0;
    }
    let mut global = vec![0.0f64; classes];
    for &l in labels {
        global[l] += 1.0;
    }
    for g in &mut global {
        *g /= labels.len() as f64;
    }
    let mut total = 0.0;
    let mut counted = 0usize;
    for shard in shards {
        if shard.is_empty() {
            continue;
        }
        let mut local = vec![0.0f64; classes];
        for &i in shard {
            local[labels[i]] += 1.0;
        }
        for l in &mut local {
            *l /= shard.len() as f64;
        }
        let tv: f64 = global
            .iter()
            .zip(&local)
            .map(|(g, l)| (g - l).abs())
            .sum::<f64>()
            / 2.0;
        total += tv;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize, classes: usize) -> Vec<usize> {
        (0..n).map(|i| i % classes).collect()
    }

    fn assert_partition(n: usize, shards: &[Vec<usize>]) {
        let mut seen = vec![false; n];
        for s in shards {
            for &i in s {
                assert!(!seen[i], "sample {i} appears twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some sample lost");
    }

    #[test]
    fn iid_is_a_partition_with_even_shards() {
        let l = labels(103, 10);
        let mut rng = Prng::seed_from_u64(1);
        let shards = iid(&l, 5, &mut rng);
        assert_partition(103, &shards);
        for s in &shards {
            assert!(s.len() == 20 || s.len() == 21);
        }
    }

    #[test]
    fn dirichlet_is_a_partition() {
        let l = labels(500, 10);
        let mut rng = Prng::seed_from_u64(2);
        let shards = dirichlet(&l, 20, 0.5, &mut rng);
        assert_partition(500, &shards);
        assert!(shards.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn smaller_phi_is_more_skewed() {
        let l = labels(2000, 10);
        let mut skews = Vec::new();
        for &phi in &[0.1, 0.5, 5.0, 100.0] {
            let mut rng = Prng::seed_from_u64(3);
            let shards = dirichlet(&l, 10, phi, &mut rng);
            skews.push(skew_statistic(&l, &shards));
        }
        assert!(
            skews[0] > skews[1] && skews[1] > skews[2] && skews[2] > skews[3],
            "skew not monotone in phi: {skews:?}"
        );
    }

    #[test]
    fn iid_skew_is_near_zero() {
        let l = labels(2000, 10);
        let mut rng = Prng::seed_from_u64(4);
        let shards = iid(&l, 10, &mut rng);
        assert!(skew_statistic(&l, &shards) < 0.1);
    }

    #[test]
    fn groups_partition_and_diversity_ordering() {
        let l = labels(3000, 10);
        let mut rng = Prng::seed_from_u64(5);
        let (shards, groups) = synthetic_groups(&l, 21, &mut rng);
        assert_partition(3000, &shards);
        // Distinct label counts should increase from group A to C on
        // average.
        let mut avg = [0.0f64; 3];
        let mut cnt = [0usize; 3];
        for (c, g) in groups.iter().enumerate() {
            let mut seen = [false; 10];
            for &i in &shards[c] {
                seen[l[i]] = true;
            }
            let d = seen.iter().filter(|&&s| s).count() as f64;
            let gi = match g {
                DiversityGroup::A => 0,
                DiversityGroup::B => 1,
                DiversityGroup::C => 2,
            };
            avg[gi] += d;
            cnt[gi] += 1;
        }
        for i in 0..3 {
            avg[i] /= cnt[i] as f64;
        }
        assert!(
            avg[0] <= avg[1] && avg[1] < avg[2],
            "label diversity not ordered: {avg:?}"
        );
    }

    #[test]
    fn group_assignment_splits_evenly() {
        let g = assign_groups(21);
        let a = g.iter().filter(|x| **x == DiversityGroup::A).count();
        let b = g.iter().filter(|x| **x == DiversityGroup::B).count();
        let c = g.iter().filter(|x| **x == DiversityGroup::C).count();
        assert_eq!(a + b + c, 21);
        assert!(a.abs_diff(b) <= 1 && b.abs_diff(c) <= 1);
    }

    #[test]
    fn no_client_left_empty_even_under_extreme_skew() {
        let l = labels(60, 2);
        let mut rng = Prng::seed_from_u64(6);
        let shards = dirichlet(&l, 20, 0.05, &mut rng);
        assert!(shards.iter().all(|s| !s.is_empty()));
        assert_partition(60, &shards);
    }

    #[test]
    #[should_panic(expected = "phi must be positive")]
    fn zero_phi_panics() {
        let _ = dirichlet(&[0, 1], 2, 0.0, &mut Prng::seed_from_u64(0));
    }
}
