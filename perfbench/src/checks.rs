//! Output checks. Every function here compares an answer against a
//! computation made apart from the program (raw column values, generator
//! ground truth, a second pipeline) or against a property the method must
//! have. They run outside the timed phase; `tests/checks.rs` feeds each one
//! a deliberately corrupted answer to show it can fail.

use std::collections::{BTreeSet, HashSet};

use td_core::join::CorrelatedHit;
use td_serve::{Reply, Request, ResponseEnvelope, Status};
use td_table::{Column, Table, TableId};

/// A check result: `Err` carries a one-line reason.
pub type Check = Result<(), String>;

/// Collects check failures; a run is correct iff it collected none.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Number of checks evaluated.
    pub checked: u64,
    /// The first few failure reasons (all failures are counted).
    pub failures: Vec<String>,
    /// Total failures.
    pub failed: u64,
}

impl Verdict {
    /// Record one check outcome.
    pub fn record(&mut self, what: &str, c: Check) {
        self.checked += 1;
        if let Err(e) = c {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    /// True when every recorded check passed and at least one ran.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failed == 0 && self.checked > 0
    }
}

/// A score ranking is at most `k` long, finite, and ordered score
/// descending then table id ascending.
pub fn ranking_scores(hits: &[(TableId, f64)], k: usize) -> Check {
    if hits.len() > k {
        return Err(format!("{} hits for k = {k}", hits.len()));
    }
    for w in hits.windows(2) {
        let (a, b) = (w[0], w[1]);
        if !a.1.is_finite() || !b.1.is_finite() {
            return Err("non-finite score".into());
        }
        if !(a.1 > b.1 || (a.1 == b.1 && a.0 < b.0)) {
            return Err(format!("{:?} ranked before {:?}", a, b));
        }
    }
    Ok(())
}

/// An overlap ranking is at most `k` long and ordered overlap descending
/// then table id ascending.
pub fn ranking_overlaps(hits: &[(TableId, usize)], k: usize) -> Check {
    if hits.len() > k {
        return Err(format!("{} hits for k = {k}", hits.len()));
    }
    for w in hits.windows(2) {
        let (a, b) = (w[0], w[1]);
        if !(a.1 > b.1 || (a.1 == b.1 && a.0 < b.0)) {
            return Err(format!("{:?} ranked before {:?}", a, b));
        }
    }
    Ok(())
}

/// Correlated hits are at most `k` long and ordered by |estimate|
/// descending.
pub fn ranking_correlated(hits: &[CorrelatedHit], k: usize) -> Check {
    if hits.len() > k {
        return Err(format!("{} hits for k = {k}", hits.len()));
    }
    for w in hits.windows(2) {
        let (a, b) = (
            w[0].estimated_correlation.abs(),
            w[1].estimated_correlation.abs(),
        );
        if !a.is_finite() || a < b {
            return Err(format!("|r| {a} ranked before {b}"));
        }
    }
    Ok(())
}

/// The `k` a search request asked for (`None` for non-search requests).
#[must_use]
pub fn request_k(req: &Request) -> Option<usize> {
    match req {
        Request::Keyword { k, .. }
        | Request::Joinable { k, .. }
        | Request::Unionable { k, .. }
        | Request::UnionableSemantic { k, .. }
        | Request::UnionableRelationship { k, .. }
        | Request::FuzzyJoinable { k, .. }
        | Request::MultiJoinable { k, .. }
        | Request::Correlated { k, .. } => Some(*k),
        _ => None,
    }
}

/// The ranking-shape check for whatever reply a search request produced.
pub fn ranking(req: &Request, reply: &Reply) -> Check {
    let k = request_k(req).ok_or("not a search request")?;
    match reply {
        Reply::Scores(h) => ranking_scores(h, k),
        Reply::Overlaps(h) => ranking_overlaps(h, k),
        Reply::Correlated(h) => ranking_correlated(h, k),
        other => Err(format!("unexpected reply shape {}", reply_kind(other))),
    }
}

fn reply_kind(r: &Reply) -> &'static str {
    match r {
        Reply::Scores(_) => "scores",
        Reply::Overlaps(_) => "overlaps",
        Reply::Correlated(_) => "correlated",
        Reply::Batch(_) => "batch",
        _ => "other",
    }
}

/// The table ids a ranked reply names, in rank order.
#[must_use]
pub fn reply_tables(reply: &Reply) -> Vec<TableId> {
    match reply {
        Reply::Scores(h) => h.iter().map(|(t, _)| *t).collect(),
        Reply::Overlaps(h) => h.iter().map(|(t, _)| *t).collect(),
        Reply::Correlated(h) => h.iter().map(|c| c.numeric_column.table).collect(),
        _ => Vec::new(),
    }
}

/// Distinct join tokens of a column, computed from its raw values: the
/// rendered value, lower-cased, nulls skipped.
#[must_use]
pub fn raw_tokens(col: &Column) -> HashSet<String> {
    col.values
        .iter()
        .filter_map(|v| v.as_text().map(|t| t.to_lowercase()))
        .collect()
}

/// Token sets of every joinable (non-numeric, non-empty) lake column,
/// grouped by table — the brute-force side of the exact-join check.
pub struct JoinOracle {
    columns: Vec<(TableId, HashSet<String>)>,
}

impl JoinOracle {
    /// Precompute token sets for every joinable column of `tables`.
    #[must_use]
    pub fn new<'a>(tables: impl IntoIterator<Item = (TableId, &'a Table)>) -> Self {
        let mut columns = Vec::new();
        for (id, t) in tables {
            for c in &t.columns {
                if c.is_numeric() {
                    continue;
                }
                let toks = raw_tokens(c);
                if !toks.is_empty() {
                    columns.push((id, toks));
                }
            }
        }
        JoinOracle { columns }
    }

    /// Best overlap of `q` with any joinable column of `table`.
    fn best_in(&self, q: &HashSet<String>, table: TableId) -> Option<usize> {
        self.columns
            .iter()
            .filter(|(t, _)| *t == table)
            .map(|(_, s)| q.intersection(s).count())
            .max()
    }

    /// Exact joinable: every returned overlap equals the distinct-value
    /// intersection computed here, and the top overlap equals the
    /// brute-force maximum over all lake columns.
    pub fn check(&self, query: &Column, hits: &[(TableId, usize)]) -> Check {
        let q = raw_tokens(query);
        for &(t, ov) in hits {
            match self.best_in(&q, t) {
                Some(want) if want == ov => {}
                Some(want) => return Err(format!("{t}: overlap {ov}, raw intersection {want}")),
                None => return Err(format!("{t} has no joinable column")),
            }
        }
        let brute = self
            .columns
            .iter()
            .map(|(_, s)| q.intersection(s).count())
            .max()
            .unwrap_or(0);
        let top = hits.first().map_or(0, |h| h.1);
        // An empty answer is right only when nothing overlaps at all.
        if top != brute {
            return Err(format!("top overlap {top}, brute-force maximum {brute}"));
        }
        Ok(())
    }
}

/// A fuzzy query column taken from table `source` is fully contained in
/// itself, so the best score is 1.0 and `source` is returned with 1.0
/// unless `k` other tables tie it at 1.0 and win on id.
pub fn fuzzy_self(source: TableId, hits: &[(TableId, f64)], k: usize) -> Check {
    let Some(&(_, top)) = hits.first() else {
        return Err("empty answer for a lake column".into());
    };
    if top != 1.0 {
        return Err(format!("top score {top}, expected 1.0"));
    }
    match hits.iter().find(|(t, _)| *t == source) {
        Some(&(_, s)) => {
            if s == 1.0 {
                Ok(())
            } else {
                Err(format!("source table {source} scored {s}"))
            }
        }
        None if hits.len() == k && hits.iter().all(|(t, s)| *s == 1.0 && *t < source) => Ok(()),
        None => Err(format!("source table {source} missing")),
    }
}

/// Recall at `k` of the graded positives.
#[must_use]
pub fn recall(hits: &[(TableId, f64)], positives: &[TableId]) -> f64 {
    if positives.is_empty() {
        return 1.0;
    }
    let found = hits.iter().filter(|(t, _)| positives.contains(t)).count();
    found as f64 / positives.len() as f64
}

/// Mean recall stays at or above `floor`.
pub fn recall_floor(mean_recall: f64, floor: f64) -> Check {
    if mean_recall.is_finite() && mean_recall >= floor {
        Ok(())
    } else {
        Err(format!("mean recall {mean_recall:.3} below floor {floor}"))
    }
}

/// Two answers to the same request over the same tables are equal.
pub fn same_reply(got: &Reply, want: &Reply) -> Check {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "reply differs: got {} hits {:?}, want {} hits {:?}",
            reply_kind(got),
            first_ids(got),
            reply_kind(want),
            first_ids(want)
        ))
    }
}

fn first_ids(r: &Reply) -> Vec<TableId> {
    reply_tables(r).into_iter().take(4).collect()
}

/// A served response is `Ok` and carries a reply.
pub fn ok_reply(resp: &ResponseEnvelope) -> Result<&Reply, String> {
    if resp.status != Status::Ok {
        return Err(format!("status {:?}: {:?}", resp.status, resp.error));
    }
    resp.reply
        .as_ref()
        .ok_or_else(|| "Ok without a reply".into())
}

/// A coordinator reply equals the unsharded answer and names no degraded
/// shard.
pub fn coordinator_reply(resp: &ResponseEnvelope, unsharded: &Reply) -> Check {
    not_degraded(&resp.degraded)?;
    same_reply(ok_reply(resp)?, unsharded)
}

/// No shard is named as missing from a reply.
pub fn not_degraded(degraded: &[u32]) -> Check {
    if degraded.is_empty() {
        Ok(())
    } else {
        Err(format!("degraded shards {degraded:?}"))
    }
}

/// The server's live-table count equals the client's own tally.
pub fn live_count(reported: u64, base: u64, ingested: u64, dropped: u64) -> Check {
    let want = base + ingested - dropped;
    if reported == want {
        Ok(())
    } else {
        Err(format!(
            "server reports {reported} live tables, client counts {base} + {ingested} - {dropped} = {want}"
        ))
    }
}

/// No dropped table appears in an answer given after the drop's reload.
pub fn absent(reply: &Reply, dropped: &BTreeSet<TableId>) -> Check {
    match reply_tables(reply)
        .into_iter()
        .find(|t| dropped.contains(t))
    {
        Some(t) => Err(format!("dropped table {t} returned")),
        None => Ok(()),
    }
}
