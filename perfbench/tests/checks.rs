//! Each output check accepts a right answer and rejects a deliberately
//! corrupted one, so a passing benchmark run means something.

use std::collections::BTreeSet;

use perfbench::checks::{self, JoinOracle};
use td_serve::{Reply, ResponseEnvelope};
use td_table::{Column, Table, TableId};

fn t(i: u32) -> TableId {
    TableId(i)
}

fn table(name: &str, cells: &[&str]) -> Table {
    Table::new(name, vec![Column::from_strings("key", cells)]).expect("one column")
}

#[test]
fn swapped_ranking_is_rejected() {
    let good = vec![(t(3), 0.9), (t(1), 0.5), (t(2), 0.5)];
    assert!(checks::ranking_scores(&good, 3).is_ok());
    let swapped = vec![(t(1), 0.5), (t(3), 0.9), (t(2), 0.5)];
    assert!(checks::ranking_scores(&swapped, 3).is_err());
    let tie_out_of_order = vec![(t(3), 0.9), (t(2), 0.5), (t(1), 0.5)];
    assert!(checks::ranking_scores(&tie_out_of_order, 3).is_err());
    assert!(checks::ranking_scores(&good, 2).is_err(), "longer than k");

    assert!(checks::ranking_overlaps(&[(t(4), 7), (t(2), 3)], 5).is_ok());
    assert!(checks::ranking_overlaps(&[(t(2), 3), (t(4), 7)], 5).is_err());
}

#[test]
fn overlap_off_by_one_is_rejected() {
    let lake = [
        (t(0), table("a", &["x", "y", "z", "w"])),
        (t(1), table("b", &["x", "y", "q"])),
        (t(2), table("c", &["p", "q", "r"])),
    ];
    let oracle = JoinOracle::new(lake.iter().map(|(id, tb)| (*id, tb)));
    let query = Column::from_strings("q", &["X", "y", "z"]);
    let right = vec![(t(0), 3), (t(1), 2)];
    assert!(oracle.check(&query, &right).is_ok());
    let off_by_one = vec![(t(0), 3), (t(1), 3)];
    assert!(oracle.check(&query, &off_by_one).is_err());
    // Dropping the true best table leaves a top overlap below the
    // brute-force maximum.
    let missing_best = vec![(t(1), 2)];
    assert!(oracle.check(&query, &missing_best).is_err());
}

#[test]
fn fuzzy_self_match_below_one_is_rejected() {
    assert!(checks::fuzzy_self(t(5), &[(t(5), 1.0), (t(2), 0.4)], 10).is_ok());
    assert!(checks::fuzzy_self(t(5), &[(t(5), 0.97), (t(2), 0.4)], 10).is_err());
    assert!(checks::fuzzy_self(t(5), &[(t(1), 1.0), (t(2), 0.4)], 10).is_err());
}

#[test]
fn recall_below_floor_is_rejected() {
    let hits = vec![(t(1), 0.9), (t(7), 0.8), (t(2), 0.1)];
    let positives = [t(1), t(2), t(3), t(4)];
    assert_eq!(checks::recall(&hits, &positives), 0.5);
    assert!(checks::recall_floor(0.5, 0.5).is_ok());
    assert!(checks::recall_floor(0.25, 0.5).is_err());
}

#[test]
fn dropped_table_reappearing_is_rejected() {
    let dropped: BTreeSet<TableId> = [t(4)].into_iter().collect();
    assert!(checks::absent(&Reply::Overlaps(vec![(t(1), 3), (t(2), 1)]), &dropped).is_ok());
    assert!(checks::absent(&Reply::Overlaps(vec![(t(1), 3), (t(4), 1)]), &dropped).is_err());
    assert!(checks::live_count(152, 150, 3, 1).is_ok());
    assert!(checks::live_count(153, 150, 3, 1).is_err());
}

#[test]
fn shard_reply_missing_a_hit_is_rejected() {
    let unsharded = Reply::Scores(vec![(t(1), 0.9), (t(6), 0.7), (t(3), 0.2)]);
    let whole = ResponseEnvelope::ok(1, unsharded.clone());
    assert!(checks::coordinator_reply(&whole, &unsharded).is_ok());
    let missing = ResponseEnvelope::ok(1, Reply::Scores(vec![(t(1), 0.9), (t(3), 0.2)]));
    assert!(checks::coordinator_reply(&missing, &unsharded).is_err());
    let degraded = ResponseEnvelope::ok_degraded(1, unsharded.clone(), vec![1]);
    assert!(checks::coordinator_reply(&degraded, &unsharded).is_err());
}

#[test]
fn restored_reply_that_differs_is_rejected() {
    let before = Reply::Scores(vec![(t(1), 0.9), (t(6), 0.7)]);
    assert!(checks::same_reply(&before.clone(), &before).is_ok());
    let restored = Reply::Scores(vec![(t(1), 0.9), (t(6), 0.700_000_1)]);
    assert!(checks::same_reply(&restored, &before).is_err());
}
