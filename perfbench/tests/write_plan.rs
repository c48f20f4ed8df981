//! The write stream of `ingest-served` never runs out: far more rounds
//! than the lake has tables still ingest fresh ids and drop live tables,
//! and the live lake keeps its size and never holds the same content
//! twice.

use std::collections::{BTreeMap, BTreeSet};

use perfbench::inputs::general_lake;
use perfbench::workloads::{WritePlan, DROPS_PER_ROUND, INGESTS_PER_ROUND};
use td_table::TableId;

#[test]
fn stream_runs_far_past_the_lake() {
    let (base, spares) = (8, 12);
    let lake = general_lake(5, base + spares);
    let plan = WritePlan::new(&lake, base, 5);
    let mut live: BTreeSet<TableId> = lake.tables[..base].iter().map(|(id, _)| *id).collect();
    let mut seen = live.clone();
    let (mut ingested, mut dropped) = (0, 0);
    // Ten times as many rounds as the lake has tables.
    for _ in 0..10 * (base + spares) {
        for _ in 0..INGESTS_PER_ROUND {
            let id = plan.ingest(ingested);
            assert!(seen.insert(id), "id {id} ingested twice");
            live.insert(id);
            ingested += 1;
        }
        for _ in 0..DROPS_PER_ROUND {
            let id = plan.drop_id(dropped);
            assert!(live.remove(&id), "drop of non-live table {id}");
            dropped += 1;
        }
        assert_eq!(live.len(), base);
        let mut content: BTreeMap<String, TableId> = BTreeMap::new();
        for id in &live {
            let table = plan.table(&lake, *id);
            let key = format!("{}{:?}", table.name, table.columns[0].values);
            assert!(content.insert(key, *id).is_none(), "duplicate live content");
        }
    }
}
