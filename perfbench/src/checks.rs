//! Output checks. Each compares what the program produced against a
//! computation of the benchmark's own or a property the method must
//! have; a failed check makes the run report `"correct": false`.

use std::collections::{HashMap, HashSet};

use mbssl_data::ItemId;

/// Validates one served top-`n` reply: exactly `n` distinct in-catalog
/// items, none already seen, scores finite and non-increasing.
pub fn check_reply(
    recs: &[(ItemId, f32)],
    n: usize,
    num_items: usize,
    seen: &HashSet<ItemId>,
) -> Result<(), String> {
    if recs.len() != n {
        return Err(format!("reply holds {} items, want {n}", recs.len()));
    }
    let mut distinct = HashSet::with_capacity(n);
    for (rank, &(item, score)) in recs.iter().enumerate() {
        if item == 0 || item as usize > num_items {
            return Err(format!("item {item} outside catalog 1..={num_items}"));
        }
        if !distinct.insert(item) {
            return Err(format!("item {item} repeated in one reply"));
        }
        if seen.contains(&item) {
            return Err(format!("item {item} was already seen by the user"));
        }
        if !score.is_finite() {
            return Err(format!("non-finite score {score} at rank {rank}"));
        }
        if rank > 0 && score > recs[rank - 1].1 {
            return Err(format!(
                "score rises at rank {rank}: {} then {score}",
                recs[rank - 1].1
            ));
        }
    }
    Ok(())
}

/// Two replies agree item for item and score bit for score bit.
pub fn check_same_reply(served: &[(ItemId, f32)], offline: &[(ItemId, f32)]) -> Result<(), String> {
    let same = served.len() == offline.len()
        && served
            .iter()
            .zip(offline)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!(
            "served reply {served:?} differs from offline {offline:?}"
        ))
    }
}

/// Share of `reference` items found in `served`.
pub fn recall(served: &[(ItemId, f32)], reference: &[(ItemId, f32)]) -> f64 {
    if reference.is_empty() {
        return 0.0;
    }
    let got: HashSet<ItemId> = served.iter().map(|r| r.0).collect();
    reference.iter().filter(|r| got.contains(&r.0)).count() as f64 / reference.len() as f64
}

/// Every training loss the run saw is finite. Per-epoch means suffice:
/// a single non-finite step loss makes its epoch's mean non-finite.
pub fn check_losses(losses: &[f32]) -> Result<(), String> {
    match losses.iter().position(|l| !l.is_finite()) {
        Some(i) => Err(format!(
            "non-finite training loss {} at epoch {i}",
            losses[i]
        )),
        None if losses.is_empty() => Err("no training loss recorded".into()),
        None => Ok(()),
    }
}

/// NDCG@10 of a uniformly random ranking under the 1-vs-`negatives`
/// protocol: the target's rank is uniform over `negatives + 1` places.
pub fn random_ndcg10(negatives: usize) -> f64 {
    let places = (negatives + 1) as f64;
    (1..=10.min(negatives + 1))
        .map(|r| 1.0 / ((r + 1) as f64).log2())
        .sum::<f64>()
        / places
}

/// Trained validation NDCG@10 must beat the untrained model and random
/// ranking.
pub fn check_ndcg(trained: f64, untrained: f64, random: f64) -> Result<(), String> {
    if !(trained > untrained && trained > random) {
        return Err(format!(
            "validation NDCG@10 {trained:.4} does not beat untrained {untrained:.4} and random {random:.4}"
        ));
    }
    Ok(())
}

/// The benchmark's own iterated k-core: drops users with fewer than
/// `k_user` events and items with fewer than `k_item` events until
/// stable. Returns the surviving users' event lists (raw item ids, order
/// kept, users in input order).
pub fn k_core(raw: &[Vec<ItemId>], k_user: usize, k_item: usize) -> Vec<Vec<ItemId>> {
    let mut users: Vec<Vec<ItemId>> = raw.to_vec();
    loop {
        let mut count: HashMap<ItemId, usize> = HashMap::new();
        for seq in &users {
            for &it in seq {
                *count.entry(it).or_default() += 1;
            }
        }
        let before: usize = users.iter().map(Vec::len).sum::<usize>() + users.len();
        for seq in &mut users {
            seq.retain(|it| count[it] >= k_item);
        }
        users.retain(|seq| seq.len() >= k_user);
        let after: usize = users.iter().map(Vec::len).sum::<usize>() + users.len();
        if after == before {
            return users;
        }
    }
}

/// The converted dataset must equal the k-core of the generated events
/// up to a renaming of items: same users in the same order, same
/// per-user event lists, and one consistent raw→stored item mapping
/// onto exactly `num_items` stored ids.
pub fn check_converted(
    expected: &[Vec<ItemId>],
    converted: &[Vec<ItemId>],
    num_items: usize,
) -> Result<(), String> {
    let events = |d: &[Vec<ItemId>]| d.iter().map(Vec::len).sum::<usize>();
    if expected.len() != converted.len() || events(expected) != events(converted) {
        return Err(format!(
            "converted {} users / {} events, own k-core {} users / {} events",
            converted.len(),
            events(converted),
            expected.len(),
            events(expected)
        ));
    }
    let mut map: HashMap<ItemId, ItemId> = HashMap::new();
    let mut stored: HashSet<ItemId> = HashSet::new();
    for (u, (want, got)) in expected.iter().zip(converted).enumerate() {
        if want.len() != got.len() {
            return Err(format!(
                "user {u}: {} events converted, {} expected",
                got.len(),
                want.len()
            ));
        }
        for (&w, &g) in want.iter().zip(got) {
            if *map.entry(w).or_insert(g) != g {
                return Err(format!(
                    "user {u}: raw item {w} stored as two different ids"
                ));
            }
            stored.insert(g);
        }
    }
    if map.len() != stored.len() || stored.len() != num_items {
        return Err(format!(
            "{} raw items map onto {} stored ids; header says {num_items}",
            map.len(),
            stored.len()
        ));
    }
    Ok(())
}

/// Each user's events (`offsets[u]..offsets[u + 1]` into `timestamps`)
/// are in time order.
pub fn check_time_order(offsets: &[u64], timestamps: &[i64]) -> Result<(), String> {
    for (u, w) in offsets.windows(2).enumerate() {
        let ts = &timestamps[w[0] as usize..w[1] as usize];
        if let Some(i) = ts.windows(2).position(|p| p[1] < p[0]) {
            return Err(format!("user {u}: timestamp {} after {}", ts[i + 1], ts[i]));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(items: &[ItemId]) -> Vec<(ItemId, f32)> {
        items
            .iter()
            .enumerate()
            .map(|(i, &it)| (it, 10.0 - i as f32))
            .collect()
    }

    #[test]
    fn good_reply_passes() {
        let seen: HashSet<ItemId> = [50, 51].into_iter().collect();
        check_reply(&reply(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 10, 100, &seen).unwrap();
    }

    #[test]
    fn reply_with_seen_item_fails() {
        let seen: HashSet<ItemId> = [7].into_iter().collect();
        assert!(check_reply(&reply(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 10, 100, &seen).is_err());
    }

    #[test]
    fn short_reply_fails() {
        let seen = HashSet::new();
        assert!(check_reply(&reply(&[1, 2, 3, 4, 5, 6, 7, 8, 9]), 10, 100, &seen).is_err());
    }

    #[test]
    fn bad_replies_fail() {
        let seen = HashSet::new();
        let repeated = reply(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 9]);
        assert!(check_reply(&repeated, 10, 100, &seen).is_err());
        let outside = reply(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 101]);
        assert!(check_reply(&outside, 10, 100, &seen).is_err());
        let mut rising = reply(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        rising[4].1 = 99.0;
        assert!(check_reply(&rising, 10, 100, &seen).is_err());
    }

    #[test]
    fn replies_must_match_bitwise() {
        let a = reply(&[1, 2, 3]);
        let mut b = a.clone();
        check_same_reply(&a, &b).unwrap();
        b[2].1 = f32::from_bits(b[2].1.to_bits() + 1);
        assert!(check_same_reply(&a, &b).is_err());
        assert_eq!(recall(&reply(&[1, 2, 3, 4]), &reply(&[3, 4, 5, 6])), 0.5);
    }

    #[test]
    fn non_finite_loss_fails() {
        check_losses(&[6.1, 5.2]).unwrap();
        assert!(check_losses(&[6.1, f32::NAN]).is_err());
        assert!(check_losses(&[f32::INFINITY]).is_err());
        assert!(check_losses(&[]).is_err());
    }

    #[test]
    fn ndcg_must_beat_untrained_and_random() {
        let random = random_ndcg10(99);
        assert!((random - 0.0454).abs() < 1e-3, "{random}");
        check_ndcg(0.2, 0.05, random).unwrap();
        assert!(check_ndcg(0.04, 0.01, random).is_err());
        assert!(check_ndcg(0.1, 0.1, random).is_err());
    }

    fn raw_log() -> Vec<Vec<ItemId>> {
        // Items 1..=3 are popular; 9 occurs twice and falls to the 5/3
        // core; user 3 then keeps too few events and drops out.
        vec![
            vec![1, 2, 3, 1, 2, 9],
            vec![2, 3, 1, 3, 2],
            vec![3, 1, 2, 1, 3, 9],
            vec![1, 2, 3, 4, 4],
        ]
    }

    /// What a faithful converter stores for `raw_log`: dense ids in
    /// first-appearance order.
    fn faithful() -> Vec<Vec<ItemId>> {
        vec![
            vec![1, 2, 3, 1, 2],
            vec![2, 3, 1, 3, 2],
            vec![3, 1, 2, 1, 3],
        ]
    }

    #[test]
    fn own_k_core_matches_hand_computation() {
        let core = k_core(&raw_log(), 5, 3);
        assert_eq!(
            core,
            vec![
                vec![1, 2, 3, 1, 2],
                vec![2, 3, 1, 3, 2],
                vec![3, 1, 2, 1, 3]
            ]
        );
        check_converted(&core, &faithful(), 3).unwrap();
    }

    #[test]
    fn dataset_with_one_event_dropped_fails() {
        let core = k_core(&raw_log(), 5, 3);
        let mut dropped = faithful();
        dropped[1].remove(2);
        assert!(check_converted(&core, &dropped, 3).is_err());
        let mut swapped = faithful();
        swapped[2][0] = 1;
        assert!(check_converted(&core, &swapped, 3).is_err());
    }

    #[test]
    fn time_order_is_checked_per_user() {
        check_time_order(&[0, 3, 5], &[0, 1, 1, 0, 4]).unwrap();
        assert!(check_time_order(&[0, 3, 5], &[0, 2, 1, 0, 4]).is_err());
    }
}
