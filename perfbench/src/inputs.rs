//! Inputs: seeded lakes from `td_table::gen`, the query pools each
//! workload draws from, and the set-up steps every workload shares
//! (context, per-table extraction, assembly).

use std::collections::BTreeSet;
use std::time::Instant;

use td_core::union::VectorBackend;
use td_core::{
    DiscoveryPipeline, PipelineConfig, PipelineContext, PipelineSegment, TableArtifacts,
};
use td_serve::Request;
use td_table::gen::bench_union::{RelationSpec, UnionBenchConfig, UnionBenchmark};
use td_table::gen::domains::DomainRegistry;
use td_table::gen::lakegen::{LakeGenConfig, LakeGenerator};
use td_table::{Table, TableId};

use crate::stats::{below, splitmix, Zipf};

/// Results requested by every search.
pub const K: usize = 10;
/// Similarity threshold of every fuzzy-join query.
pub const TAU: f32 = 0.8;

/// The eight search families, in `Request::search_endpoints` order.
pub const FAMILIES: [&str; 8] = [
    "keyword",
    "joinable",
    "unionable",
    "unionable_semantic",
    "unionable_relationship",
    "fuzzy_joinable",
    "multi_joinable",
    "correlated",
];

/// The six families that run in a few milliseconds in-process; the
/// served workloads draw from these only.
pub const CHEAP: [&str; 6] = [
    "keyword",
    "joinable",
    "multi_joinable",
    "correlated",
    "unionable_relationship",
    "unionable_semantic",
];

/// A generated lake with the world its pipeline context is built from.
pub struct Lake {
    /// `(id, table)` pairs, ascending by id.
    pub tables: Vec<(TableId, Table)>,
    /// Domain registry behind the generated values.
    pub registry: DomainRegistry,
    /// Relation specs for the knowledge base.
    pub relations: Vec<RelationSpec>,
}

impl Lake {
    /// The table with id `id`.
    ///
    /// # Panics
    /// Panics if the id is not in the lake (a benchmark bug).
    #[must_use]
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[self
            .tables
            .binary_search_by_key(&id, |(i, _)| *i)
            .expect("table id in lake")]
        .1
    }
}

/// A general-purpose lake of `n` tables (8–48 rows, 2–5 columns).
#[must_use]
pub fn general_lake(seed: u64, n: usize) -> Lake {
    let gl = LakeGenerator::standard().generate(&LakeGenConfig {
        num_tables: n,
        rows: (8, 48),
        cols: (2, 5),
        seed,
        ..LakeGenConfig::default()
    });
    Lake {
        tables: gl.lake.iter().map(|(id, t)| (id, t.clone())).collect(),
        registry: gl.registry,
        relations: Vec::new(),
    }
}

/// A seeded union benchmark: query tables with graded ground truth, and
/// a lake of their positives, partials, decoys and noise tables.
#[must_use]
pub fn union_lake(seed: u64, queries: usize) -> (Lake, UnionBenchmark) {
    let ub = UnionBenchmark::generate(&UnionBenchConfig {
        num_queries: queries,
        rows: 40,
        seed,
        ..UnionBenchConfig::default()
    });
    let lake = Lake {
        tables: ub.lake.iter().map(|(id, t)| (id, t.clone())).collect(),
        registry: ub.registry.clone(),
        relations: ub.relations.clone(),
    };
    (lake, ub)
}

/// Pipeline configuration. `flat` selects the exhaustive Starmie
/// backend, which a sharded deployment needs for its merged answers to
/// equal an unsharded pipeline's (per-shard HNSW graphs differ).
#[must_use]
pub fn config(flat: bool) -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    if flat {
        cfg.starmie.backend = VectorBackend::Flat;
    }
    cfg
}

/// Extraction times of the set-up, kept for the extraction rate.
#[derive(Debug, Default, Clone)]
pub struct SetupTimes {
    /// `TableArtifacts::extract` per table, milliseconds (the fastest
    /// pass so far).
    pub extract_ms: Vec<f64>,
}

/// Tables re-extracted after each restore boot: every table whose index
/// is a multiple of the stride that gives about this many.
pub const EXTRACT_SAMPLE: usize = 160;

impl SetupTimes {
    fn stride(&self) -> usize {
        (self.extract_ms.len() / EXTRACT_SAMPLE).max(1)
    }

    /// Tables per second that extraction sustains: the median, over the
    /// sampled tables, of each one's fastest extraction.
    #[must_use]
    pub fn extract_rate(&self) -> f64 {
        let sample: Vec<f64> = self
            .extract_ms
            .iter()
            .step_by(self.stride())
            .copied()
            .collect();
        1e3 / crate::stats::percentile(&sample, 0.5)
    }
}

/// Build the shared context and extract every table's artifacts.
#[must_use]
pub fn extract_lake(
    lake: &Lake,
    cfg: &PipelineConfig,
    times: &mut SetupTimes,
) -> (PipelineContext, Vec<(TableId, TableArtifacts)>) {
    let ctx = PipelineContext::new(&lake.registry, &lake.relations, cfg);
    let arts = lake
        .tables
        .iter()
        .map(|(id, table)| {
            let t = Instant::now();
            let a = TableArtifacts::extract(table, &ctx);
            times.extract_ms.push(t.elapsed().as_secs_f64() * 1e3);
            (*id, a)
        })
        .collect();
    (ctx, arts)
}

/// Extract the sampled tables once more, keeping each one's fastest time
/// in `times`. Repeated between boots, some pass of each table misses
/// the bursts of host load.
pub fn extract_again(lake: &Lake, ctx: &PipelineContext, times: &mut SetupTimes) {
    let stride = times.stride();
    for ((_, table), best) in lake
        .tables
        .iter()
        .zip(&mut times.extract_ms)
        .step_by(stride)
    {
        let t = Instant::now();
        std::hint::black_box(TableArtifacts::extract(table, ctx));
        *best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
}

/// One segment holding (copies of) the given artifacts.
#[must_use]
pub fn segment_of<'a>(
    arts: impl IntoIterator<Item = &'a (TableId, TableArtifacts)>,
) -> PipelineSegment {
    let mut seg = PipelineSegment::default();
    for (id, a) in arts {
        seg.insert_artifacts(*id, a.clone());
    }
    seg
}

/// Assemble a searchable pipeline from extracted artifacts.
#[must_use]
pub fn assemble<'a>(
    ctx: &PipelineContext,
    arts: impl IntoIterator<Item = &'a (TableId, TableArtifacts)>,
) -> DiscoveryPipeline {
    let seg = segment_of(arts);
    DiscoveryPipeline::from_segments(ctx, &[&seg], &BTreeSet::new())
}

/// One query of a pool, with the lake table it was cut from.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The request.
    pub req: Request,
    /// The table the query came from.
    pub source: TableId,
}

/// Build a request of `family` from `table`, or `None` if the table
/// lacks what the family needs (a text column, a numeric column, two
/// columns).
#[must_use]
pub fn family_request(family: &str, table: &Table, k: usize) -> Option<Request> {
    let text = table
        .columns
        .iter()
        .find(|c| !c.is_numeric() && !c.values.is_empty());
    let numeric = table.columns.iter().find(|c| c.is_numeric());
    Some(match family {
        "keyword" => {
            let topic = table.name.split('_').next().unwrap_or("dataset");
            let header = table.columns.first().map_or("", |c| c.name.as_str());
            Request::Keyword {
                query: format!("{topic} {header}"),
                k,
            }
        }
        "joinable" => Request::Joinable {
            column: text?.clone(),
            k,
        },
        "unionable" => Request::Unionable {
            table: table.clone(),
            k,
        },
        "unionable_semantic" => Request::UnionableSemantic {
            table: table.clone(),
            k,
        },
        "unionable_relationship" => Request::UnionableRelationship {
            table: table.clone(),
            k,
        },
        "fuzzy_joinable" => Request::FuzzyJoinable {
            column: text?.clone(),
            tau: TAU,
            k,
        },
        "multi_joinable" if table.num_cols() >= 2 => Request::MultiJoinable {
            table: table.clone(),
            key_cols: vec![0, 1],
            k,
        },
        "correlated" => Request::Correlated {
            key: text?.clone(),
            numeric: numeric?.clone(),
            k,
        },
        _ => return None,
    })
}

/// `per_family` distinct queries for each of `families`, cut from lake
/// tables drawn with the seed. Row `f` of the result is `families[f]`.
#[must_use]
pub fn pool(lake: &Lake, families: &[&str], per_family: usize, seed: u64) -> Vec<Vec<Entry>> {
    families
        .iter()
        .enumerate()
        .map(|(fi, family)| {
            let mut state = seed ^ (fi as u64 + 1).wrapping_mul(0x5851_F42D_4C95_7F2D);
            let mut used = BTreeSet::new();
            let mut out = Vec::with_capacity(per_family);
            // Every generated table has a text column or two columns, so
            // this terminates; the attempt cap keeps a bad lake finite.
            for _ in 0..per_family * 64 {
                if out.len() == per_family {
                    break;
                }
                let (id, table) = &lake.tables[below(&mut state, lake.tables.len())];
                if !used.insert(*id) {
                    continue;
                }
                if let Some(req) = family_request(family, table, K) {
                    out.push(Entry { req, source: *id });
                }
            }
            out
        })
        .collect()
}

/// A seeded, Zipf-skewed walk over a pool: families in turn, the query
/// within each family drawn with Zipf(1.1), so popular queries repeat.
pub struct Stream {
    zipf: Vec<Zipf>,
    state: u64,
}

impl Stream {
    /// A stream over `pool` seeded with `seed`.
    #[must_use]
    pub fn new(pool: &[Vec<Entry>], seed: u64) -> Self {
        Stream {
            zipf: pool.iter().map(|f| Zipf::new(f.len(), 1.1)).collect(),
            state: splitmix(&mut (seed ^ 0x00C0_FFEE)),
        }
    }

    /// The next query index within `family`.
    pub fn next(&mut self, family: usize) -> usize {
        self.zipf[family].sample(&mut self.state)
    }
}
