//! Discrete-event simulation of pipelined chunk schedules.
//!
//! This is the virtual-time counterpart of the BT-Implementer runtime: the
//! same chunk/queue/recycled-TaskObject structure (§3.4 of the paper), but
//! executed against the analytic cost model instead of real silicon. Each
//! chunk is a station served by its PU; a fixed pool of task objects
//! circulates through the chunks and back to the head (multi-buffering with
//! recycling).
//!
//! One engine prices every static shape. It runs a *forest* of chunk
//! graphs — tenants × DAG edges × replica groups — in one shared virtual
//! timeline, with one service model, one memo, one event loop, one fault
//! path and one telemetry path. The entry points only differ in the forest
//! they build:
//!
//! - [`simulate`]: one linear chain of chunks;
//! - [`simulate_dag`]: one fork/join chunk DAG, optionally with replica
//!   groups (chain-shaped specs are priced exactly like [`simulate`]);
//! - [`simulate_multi`]: several co-running tenants, each a chain or a DAG;
//! - [`simulate_batch`]: many seeds and fault plans over one chain, sharing
//!   the forest setup and the memo.
//!
//! Fidelity detail that matters for the paper's results: when a chunk starts
//! a *stage*, its service time is computed against the set of PUs busy **at
//! that instant** (their current stage's class and bandwidth demand) — in
//! its own pipeline, a sibling branch, a replica, or another tenant. Real
//! pipelines therefore experience time-varying interference that no static
//! profiling table captures exactly — which is why the paper needs
//! interference-aware profiling to get *close* (Fig. 6) and autotuning to
//! close the residual gap (Table 4).
//!
//! Shape semantics:
//!
//! - **Joins are deterministic**: a DAG chunk serves task `t` only after
//!   every predecessor has delivered it, strictly in task order, so merge
//!   order never depends on branch timing.
//! - **Replica groups** split one logical chunk across several PUs
//!   round-robin: member `i` of an `L`-member group serves exactly the
//!   tasks with `seq % L == i`, and the downstream join restores order.
//! - **Drops** follow one of two rules. In a chain the dropped task's
//!   object recycles to the head at once. In a DAG the task becomes a
//!   *tombstone* that still flows through the remaining graph at zero cost
//!   (so joins never wait for a dead sibling) and its object recycles at
//!   the sink. Both keep `completed + dropped == submitted`.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use bt_telemetry::{DispatcherCounters, RunTelemetry, SpanRecorder};

use crate::cost;
use crate::fault::{FaultSpec, StageFaultKind};
use crate::run::{RunConfig, RunReport, RunStats, TimelineSpan};
use crate::{ActiveKernel, Micros, NoiseModel, PuClass, PuSpec, SocError, SocSpec, WorkProfile};

/// One pipeline chunk: a PU class plus the stages it executes in order.
#[derive(Debug, Clone)]
pub struct ChunkSpec {
    /// The PU class serving this chunk.
    pub pu: PuClass,
    /// Work profiles of the chunk's stages, in pipeline order.
    pub stages: Vec<WorkProfile>,
    /// Whether every stage pays the PU's completion-synchronization cost.
    ///
    /// BT-Implementer chunks submit kernels asynchronously and synchronize
    /// once per chunk per task (`false`, the default); accelerator-oriented
    /// baselines synchronize after every stage (`true`). On mobile Vulkan
    /// stacks this difference is a large part of the pipeline speedup.
    pub sync_per_stage: bool,
}

impl ChunkSpec {
    /// Creates a chunk of `stages` on `pu` with once-per-chunk
    /// synchronization (the BT-Implementer dispatch pattern).
    pub fn new(pu: PuClass, stages: Vec<WorkProfile>) -> ChunkSpec {
        ChunkSpec {
            pu,
            stages,
            sync_per_stage: false,
        }
    }

    /// Switches to per-stage synchronization (the baseline offload
    /// pattern).
    pub fn with_per_stage_sync(mut self) -> ChunkSpec {
        self.sync_per_stage = true;
        self
    }
}

/// A chunk-level DAG pipeline: the chunks, the token-flow edges between
/// them, and any replica groups.
#[derive(Debug, Clone)]
pub struct DagPipelineSpec {
    /// The chunks; indices name them in `edges` and `replica_groups`.
    pub chunks: Vec<ChunkSpec>,
    /// Directed token-flow edges `(from, to)` between chunk indices.
    pub edges: Vec<(usize, usize)>,
    /// Replica groups: each is ≥ 2 chunk indices serving one logical
    /// chunk round-robin (member `i` of an `L`-group serves
    /// `seq % L == i`). Members must share identical predecessor and
    /// successor sets and may not be the source or the sink.
    pub replica_groups: Vec<Vec<usize>>,
}

impl DagPipelineSpec {
    /// A DAG pipeline with no replica groups.
    pub fn new(chunks: Vec<ChunkSpec>, edges: Vec<(usize, usize)>) -> DagPipelineSpec {
        DagPipelineSpec {
            chunks,
            edges,
            replica_groups: Vec::new(),
        }
    }

    /// A chain over `chunks`, the degenerate DAG.
    pub fn chain(chunks: Vec<ChunkSpec>) -> DagPipelineSpec {
        let edges = (1..chunks.len()).map(|i| (i - 1, i)).collect();
        DagPipelineSpec::new(chunks, edges)
    }

    /// Adds a replica group.
    pub fn with_replica_group(mut self, members: Vec<usize>) -> DagPipelineSpec {
        self.replica_groups.push(members);
        self
    }

    /// Whether the spec is chain-shaped (no replica groups, edges exactly
    /// `i → i+1`) and is therefore priced exactly like [`simulate`].
    pub fn is_chain(&self) -> bool {
        self.replica_groups.is_empty() && chain_shaped(self.chunks.len(), &normalized(&self.edges))
    }
}

/// One co-running application: a name, its chunk schedule, and its own
/// run configuration.
///
/// The simulator honours every [`RunConfig`] field per tenant, telemetry
/// included (dispatcher counters and spans use tenant-local chunk
/// indices).
///
/// By default the chunks form a linear pipeline in vector order. A
/// tenant whose chunks form a fork/join DAG instead declares its edges
/// with [`TenantSpec::with_edges`]; sibling branches then genuinely
/// overlap in time (and in every co-runner's interference busy-set).
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name of the tenant (application identifier).
    pub name: String,
    /// The tenant's pipeline: chunks in pipeline order.
    pub chunks: Vec<ChunkSpec>,
    /// The tenant's run configuration.
    pub cfg: RunConfig,
    /// Dataflow edges `(from, to)` over local chunk indices. `None` (the
    /// default) means the linear chain `0 → 1 → … → n-1`. When set, the
    /// edges must form an acyclic graph with a unique source and a unique
    /// sink; chain-shaped edge sets behave identically to `None`.
    pub edges: Option<Vec<(usize, usize)>>,
}

impl TenantSpec {
    /// Convenience constructor for a linear-chain tenant.
    pub fn new(name: impl Into<String>, chunks: Vec<ChunkSpec>, cfg: RunConfig) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            chunks,
            cfg,
            edges: None,
        }
    }

    /// Declares explicit dataflow edges over this tenant's chunks,
    /// turning it into a fork/join DAG pipeline.
    #[must_use]
    pub fn with_edges(mut self, edges: Vec<(usize, usize)>) -> TenantSpec {
        self.edges = Some(edges);
        self
    }
}

/// Result of one multi-tenant co-run.
#[derive(Debug, Clone)]
pub struct MultiRunReport {
    /// One unified report per tenant, in input order. Each upholds the
    /// engine invariant `completed + dropped == submitted` and windows its
    /// stats with its own warmup (timeline chunk indices are
    /// tenant-local).
    pub tenants: Vec<RunReport>,
    /// Virtual time of the last task completion across all tenants, µs
    /// from the co-run start (0 when nothing completed).
    pub makespan_us: f64,
    /// Aggregate completed tasks per second over the co-run makespan
    /// (0 when nothing completed).
    pub throughput_hz: f64,
}

/// One lane of a batched run: the seed of its noise stream plus an
/// optional fault plan. `None` faults is bit-identical to an empty spec.
#[derive(Debug, Clone, Default)]
pub struct DesSeedSpec {
    /// Seed for this lane's measurement-noise stream (overrides
    /// [`RunConfig::seed`], which batched runs ignore).
    pub seed: u64,
    /// Fault plan injected into this lane, if any.
    pub faults: Option<FaultSpec>,
}

impl DesSeedSpec {
    /// A clean (fault-free) lane with the given seed.
    pub fn new(seed: u64) -> DesSeedSpec {
        DesSeedSpec { seed, faults: None }
    }

    /// A faulted lane: `seed` for noise, `faults` injected.
    pub fn with_faults(seed: u64, faults: FaultSpec) -> DesSeedSpec {
        DesSeedSpec {
            seed,
            faults: Some(faults),
        }
    }
}

/// Sorted, deduplicated copy of an edge list.
fn normalized(edges: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let mut edges = edges.to_vec();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Whether normalized `edges` over `n` chunks are exactly `i → i+1`.
fn chain_shaped(n: usize, edges: &[(usize, usize)]) -> bool {
    edges.len() + 1 == n.max(1) && edges.iter().enumerate().all(|(i, &e)| e == (i, i + 1))
}

/// Validated token routing of one DAG tenant, in tenant-local indices.
struct Topology {
    succs: Vec<Vec<usize>>,
    /// Deliveries a task needs before the chunk may serve it: one per
    /// plain predecessor and one per predecessor replica group (exactly
    /// one member of a group serves any given task).
    required: Vec<u32>,
    source: usize,
    /// `replica[c] = Some((residue, group_len))` for group members.
    replica: Vec<Option<(usize, usize)>>,
}

impl Topology {
    /// Validates a chunk graph. `Ok(None)` means it is a plain chain.
    fn build(
        n: usize,
        edges: &[(usize, usize)],
        groups: &[Vec<usize>],
    ) -> Result<Option<Topology>, String> {
        let edges = normalized(edges);
        if groups.is_empty() && chain_shaped(n, &edges) {
            return Ok(None);
        }
        for &(u, v) in &edges {
            if u >= n || v >= n {
                return Err(format!("edge ({u}, {v}) references an unknown chunk"));
            }
            if u == v {
                return Err(format!("chunk {u} feeds itself"));
            }
        }
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for &(u, v) in &edges {
            succs[u].push(v);
            preds[v].push(u);
        }
        // Acyclicity (Kahn).
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&c| indeg[c] == 0).collect();
        let mut seen = 0;
        while let Some(c) = ready.pop() {
            seen += 1;
            for &s in &succs[c] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        if seen != n {
            return Err("chunk graph contains a cycle".to_string());
        }
        let sources: Vec<usize> = (0..n).filter(|&c| preds[c].is_empty()).collect();
        let sinks: Vec<usize> = (0..n).filter(|&c| succs[c].is_empty()).collect();
        let (&[source], &[sink]) = (sources.as_slice(), sinks.as_slice()) else {
            return Err(format!(
                "pipeline needs exactly one source and one sink chunk \
                 (found {} sources, {} sinks)",
                sources.len(),
                sinks.len()
            ));
        };
        let mut replica = vec![None; n];
        for group in groups {
            if group.len() < 2 {
                return Err("replica group needs at least 2 members".to_string());
            }
            for (i, &m) in group.iter().enumerate() {
                if m >= n {
                    return Err(format!("replica member {m} is not a chunk"));
                }
                if m == source || m == sink {
                    return Err(format!(
                        "chunk {m} is the pipeline source or sink and cannot be replicated"
                    ));
                }
                if replica[m].is_some() {
                    return Err(format!("chunk {m} appears in two replica groups"));
                }
                replica[m] = Some((i, group.len()));
            }
            // Round-robin split/merge is only well-defined when every
            // member sits between the same upstream and downstream chunks.
            let lead = group[0];
            for &m in &group[1..] {
                if preds[m] != preds[lead] || succs[m] != succs[lead] {
                    return Err(format!(
                        "replica group members {lead} and {m} have different neighbours"
                    ));
                }
            }
            for &nb in preds[lead].iter().chain(&succs[lead]) {
                if groups.iter().any(|g| g.contains(&nb)) {
                    return Err(format!(
                        "chunk {nb} is both a replica and a replica-group neighbour"
                    ));
                }
            }
        }
        let required = preds
            .iter()
            .map(|ps| {
                ps.iter()
                    .filter(|&&p| replica[p].is_none_or(|(r, _)| r == 0))
                    .count() as u32
            })
            .collect();
        Ok(Some(Topology {
            succs,
            required,
            source,
            replica,
        }))
    }
}

/// The pending completion events, one slot per chunk.
///
/// A chunk serves at most one in-flight (task, stage) at a time, so the
/// event set never exceeds the chunk count and a fixed array of next
/// completion times replaces a binary heap: push is a store, pop is an
/// argmin scan over a handful of `f64`s. The ascending scan with a strict
/// `<` keeps the heap's exact (time, lowest chunk index) tie-break.
#[derive(Debug)]
struct EventSlots {
    /// Completion time per chunk; `INFINITY` marks an idle chunk.
    next_done: Vec<f64>,
}

impl EventSlots {
    fn new(n_chunks: usize) -> EventSlots {
        EventSlots {
            next_done: vec![f64::INFINITY; n_chunks],
        }
    }

    /// Schedules chunk `chunk` to complete its in-flight stage at `time`.
    fn push(&mut self, chunk: usize, time: f64) {
        debug_assert!(self.next_done[chunk].is_infinite(), "one event per chunk");
        self.next_done[chunk] = time;
    }

    /// Removes and returns the earliest `(time, chunk)` event.
    ///
    /// # Panics
    ///
    /// Panics if no event is pending. Buffered queues cannot deadlock and
    /// fault specs are validated to keep every service time finite, so
    /// this is unreachable from the public entry points.
    fn pop(&mut self) -> (f64, usize) {
        let mut best = (f64::INFINITY, usize::MAX);
        for (chunk, &t) in self.next_done.iter().enumerate() {
            if t < best.0 {
                best = (t, chunk);
            }
        }
        assert!(
            best.1 != usize::MAX,
            "pipeline cannot deadlock with buffered queues"
        );
        self.next_done[best.1] = f64::INFINITY;
        best
    }
}

/// Multiplicative hasher for the hashed memo's `u64` keys.
///
/// Keys are dense mixed-radix integers, so one Fibonacci multiply spreads
/// them adequately; routing 8 bytes through SipHash (the `HashMap`
/// default) costs a significant fraction of the roofline evaluation the
/// memo exists to avoid.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// The noiseless base-latency memo, keyed by (stage row, busy index).
#[derive(Debug)]
enum Memo {
    /// Disabled ([`RunConfig::service_cache`] off, or a key space past
    /// `u64`).
    Off,
    /// Direct-mapped table over the whole key space; `INFINITY` marks an
    /// unpriced entry.
    Dense(Vec<f64>),
    /// The same keys, hashed, when the key space is too large to tabulate.
    Hashed(HashMap<u64, f64, std::hash::BuildHasherDefault<KeyHasher>>),
}

/// Service-time pricing for the event loop.
///
/// Busy-set independent quantities (bandwidth demand, synchronization
/// cost) are precomputed per stage *row* (chunk `c`'s stages occupy rows
/// `row[c]..row[c] + stages`), and the noiseless base latency is memoized
/// per (row, busy set).
///
/// The busy set is a mixed-radix number, the *busy index*: chunk `i`
/// contributes `field_i · weight[i]`, where `field_i` is `stage + 1` while
/// busy and 0 when idle and `weight[i] = Π_{j<i} (stages_j + 1)`. The
/// engine keeps it up to date as chunks start and finish stages. Because a
/// co-runner's advertised demand is a pure function of its (chunk, stage)
/// — and of whether it belongs to the dispatcher's tenant, which the chunk
/// index fixes — the index minus the dispatcher's own field identifies the
/// co-runner multiset exactly, so memoized values are bit-identical to
/// fresh ones.
#[derive(Debug)]
struct ServiceModel<'a> {
    soc: &'a SocSpec,
    chunks: Vec<&'a ChunkSpec>,
    pus: Vec<&'a PuSpec>,
    /// Owning tenant per chunk (cross-tenant co-runners are penalized).
    tenant: Vec<usize>,
    xt_penalty: f64,
    row: Vec<usize>,
    /// DRAM bandwidth advertised while a stage runs, per row.
    demand: Vec<f64>,
    /// Completion-synchronization cost added to a stage's service, per row.
    sync: Vec<f64>,
    /// Mixed-radix busy-index weight per chunk (all zero when the memo is
    /// off, so the engine's index updates are no-ops).
    weight: Vec<u64>,
    /// Busy-index radix `Π (stages_i + 1)`: keys are `row · radix + index`.
    radix: u64,
    memo: Memo,
    /// Reused co-runner buffer for memo misses.
    scratch: Vec<ActiveKernel>,
}

impl<'a> ServiceModel<'a> {
    /// Key-space bound for the direct-mapped table (entries). Typical
    /// schedules need tens to hundreds; the table is allocated per run.
    const DENSE_MAX: u64 = 1 << 12;

    fn new(
        soc: &'a SocSpec,
        chunks: Vec<&'a ChunkSpec>,
        tenant: Vec<usize>,
        use_memo: bool,
    ) -> ServiceModel<'a> {
        let pus: Vec<&PuSpec> = chunks
            .iter()
            .map(|c| soc.pu(c.pu).expect("chunk PUs validated by the forest"))
            .collect();
        let mut row = Vec::with_capacity(chunks.len());
        let mut demand = Vec::new();
        let mut sync = Vec::new();
        for (c, pu) in chunks.iter().zip(&pus) {
            row.push(demand.len());
            for (s, w) in c.stages.iter().enumerate() {
                demand.push(cost::bw_demand(w, pu));
                sync.push(if c.sync_per_stage || s + 1 == c.stages.len() {
                    pu.sync_overhead_us()
                } else {
                    0.0
                });
            }
        }
        let mut weight = Vec::with_capacity(chunks.len());
        let mut radix = Some(1u64);
        for c in &chunks {
            weight.push(radix.unwrap_or(0));
            radix = radix.and_then(|r| r.checked_mul(c.stages.len() as u64 + 1));
        }
        let space = radix.and_then(|r| r.checked_mul(demand.len() as u64));
        let memo = match space {
            _ if !use_memo => Memo::Off,
            None => Memo::Off,
            Some(n) if n <= Self::DENSE_MAX => Memo::Dense(vec![f64::INFINITY; n as usize]),
            Some(_) => Memo::Hashed(HashMap::with_capacity_and_hasher(256, Default::default())),
        };
        if matches!(memo, Memo::Off) {
            weight.fill(0);
        }
        ServiceModel {
            soc,
            xt_penalty: soc.interference().cross_tenant_penalty(),
            scratch: Vec::with_capacity(chunks.len()),
            pus,
            tenant,
            row,
            demand,
            sync,
            weight,
            radix: radix.unwrap_or(0),
            memo,
            chunks,
        }
    }

    /// Noiseless latency of chunk `c` running `stage` against the busy set
    /// in `states`, whose busy index is `busy_index`.
    fn base(&mut self, c: usize, stage: usize, busy_index: u64, states: &[ChunkState]) -> f64 {
        let key = if matches!(self.memo, Memo::Off) {
            0
        } else {
            // A chunk is never its own co-runner: mask its field out.
            let own = states[c].busy.map_or(0, |f| f.stage as u64 + 1) * self.weight[c];
            (self.row[c] + stage) as u64 * self.radix + (busy_index - own)
        };
        let hit = match &self.memo {
            Memo::Off => None,
            Memo::Dense(table) => Some(table[key as usize]).filter(|v| *v < f64::INFINITY),
            Memo::Hashed(map) => map.get(&key).copied(),
        };
        if let Some(v) = hit {
            return v;
        }
        self.scratch.clear();
        for (i, s) in states.iter().enumerate() {
            if let (true, Some(f)) = (i != c, s.busy) {
                let mut d = f.demand;
                if self.tenant[i] != self.tenant[c] {
                    d *= self.xt_penalty;
                }
                self.scratch.push(ActiveKernel::new(self.chunks[i].pu, d));
            }
        }
        let work = &self.chunks[c].stages[stage];
        let v = cost::latency_under(work, self.pus[c], self.soc, &self.scratch).as_f64();
        match &mut self.memo {
            Memo::Off => {}
            Memo::Dense(table) => table[key as usize] = v,
            Memo::Hashed(map) => {
                map.insert(key, v);
            }
        }
        v
    }
}

/// One tenant's place in the forest.
#[derive(Debug)]
struct TenantPlan<'a> {
    cfg: &'a RunConfig,
    /// The tenant owns global chunks `base..base + n`.
    base: usize,
    n: usize,
    head: usize,
}

/// Static routing of one global chunk.
#[derive(Debug, Clone, Copy)]
struct Station {
    tenant: usize,
    local: usize,
    /// Stage count of the chunk.
    stages: usize,
    /// The owning tenant's head (admission point).
    head: usize,
    /// The downstream chunk of a chain tenant (`None` at its tail and in
    /// DAG tenants).
    next: Option<usize>,
    dag: bool,
    /// Join fan-in (DAG tenants).
    required: u32,
    /// `(residue, group_len)` for replica-group members.
    replica: Option<(usize, usize)>,
}

impl Station {
    /// Whether this chunk serves task `t` (replica residue filter).
    fn serves(&self, t: usize) -> bool {
        self.replica.is_none_or(|(r, len)| t % len == r)
    }
}

/// One tenant as the forest builder sees it.
struct TenantInput<'a> {
    name: &'a str,
    chunks: &'a [ChunkSpec],
    cfg: &'a RunConfig,
    edges: Option<&'a [(usize, usize)]>,
    replica_groups: &'a [Vec<usize>],
}

impl<'a> TenantInput<'a> {
    fn chain(chunks: &'a [ChunkSpec], cfg: &'a RunConfig) -> TenantInput<'a> {
        TenantInput {
            name: "",
            chunks,
            cfg,
            edges: None,
            replica_groups: &[],
        }
    }
}

/// The validated, flattened forest: tenant 0's chunks first, then
/// tenant 1's, … Immutable once built, so batched runs share it.
#[derive(Debug)]
struct Forest<'a> {
    stations: Vec<Station>,
    /// Global successor lists (DAG tenants; chains route via `next`).
    succs: Vec<Vec<usize>>,
    tenants: Vec<TenantPlan<'a>>,
}

impl<'a> Forest<'a> {
    /// Validates `tenants` and builds the forest plus its service model.
    fn build(
        soc: &'a SocSpec,
        tenants: &[TenantInput<'a>],
    ) -> Result<(Forest<'a>, ServiceModel<'a>), SocError> {
        if tenants.is_empty() {
            return Err(SocError::EmptySimulation);
        }
        for t in tenants {
            if t.chunks.is_empty()
                || t.cfg.tasks == 0
                || t.chunks.iter().any(|c| c.stages.is_empty())
            {
                return Err(SocError::EmptySimulation);
            }
            for chunk in t.chunks {
                soc.try_pu(chunk.pu)?;
            }
        }
        let mut forest = Forest {
            stations: Vec::new(),
            succs: Vec::new(),
            tenants: Vec::with_capacity(tenants.len()),
        };
        let mut chunks = Vec::new();
        for (ti, t) in tenants.iter().enumerate() {
            let n = t.chunks.len();
            let topo = match t.edges {
                None => None,
                Some(edges) => Topology::build(n, edges, t.replica_groups).map_err(|reason| {
                    SocError::BadDag {
                        reason: if t.name.is_empty() {
                            reason
                        } else {
                            format!("tenant '{}': {reason}", t.name)
                        },
                    }
                })?,
            };
            let base = chunks.len();
            let head = base + topo.as_ref().map_or(0, |tp| tp.source);
            for (li, chunk) in t.chunks.iter().enumerate() {
                chunks.push(chunk);
                forest.stations.push(Station {
                    tenant: ti,
                    local: li,
                    stages: chunk.stages.len(),
                    head,
                    next: (topo.is_none() && li + 1 < n).then_some(base + li + 1),
                    dag: topo.is_some(),
                    required: topo.as_ref().map_or(1, |tp| tp.required[li]),
                    replica: topo.as_ref().and_then(|tp| tp.replica[li]),
                });
                forest.succs.push(match &topo {
                    Some(tp) => tp.succs[li].iter().map(|&d| base + d).collect(),
                    None => Vec::new(),
                });
            }
            forest.tenants.push(TenantPlan {
                cfg: t.cfg,
                base,
                n,
                head,
            });
        }
        let owner = forest.stations.iter().map(|s| s.tenant).collect();
        let use_memo = tenants.iter().all(|t| t.cfg.service_cache);
        let model = ServiceModel::new(soc, chunks, owner, use_memo);
        Ok((forest, model))
    }

    /// Runs the forest once under `faults`, with every tenant's noise
    /// seeded from `seed` when given (batched lanes) or from its own
    /// config. Returns one report per tenant and the virtual time of the
    /// last completion.
    fn run(
        &self,
        model: &mut ServiceModel<'a>,
        faults: Option<&FaultSpec>,
        seed: Option<u64>,
    ) -> Result<(Vec<RunReport>, f64), SocError> {
        if let Some(spec) = faults {
            spec.validate()?;
        }
        let mut states = Vec::with_capacity(self.stations.len());
        let mut tenants = Vec::with_capacity(self.tenants.len());
        for plan in &self.tenants {
            let cfg = plan.cfg;
            let total = (cfg.tasks + cfg.warmup) as usize;
            let buffers = if cfg.buffers == 0 {
                plan.n + 1
            } else {
                cfg.buffers as usize
            };
            for c in plan.base..plan.base + plan.n {
                states.push(ChunkState {
                    input: VecDeque::with_capacity(buffers),
                    busy: None,
                    busy_since: 0.0,
                    // One span per task served; sized up front so the
                    // event loop never reallocates it.
                    busy_spans: Vec::with_capacity(total),
                    doomed: false,
                    loss: faults.and_then(|f| f.loss_at(model.chunks[c].pu)),
                    next_seq: self.stations[c].replica.map_or(0, |(r, _)| r),
                });
            }
            let collect_timeline = cfg.record_timeline || cfg.telemetry.spans;
            let stages: usize = model.chunks[plan.base..plan.base + plan.n]
                .iter()
                .map(|c| c.stages.len())
                .sum();
            tenants.push(TenantRun {
                started: 0,
                total,
                completed: 0,
                dropped: 0,
                faults_fired: 0,
                // All task objects begin recycled at the tenant's head.
                pool: buffers,
                entry_time: vec![0.0; total],
                completions: Vec::with_capacity(total),
                alive: vec![true; total],
                noise: NoiseModel::new(cfg.noise_sigma, seed.unwrap_or(cfg.seed)),
                noise_buf: Vec::new(),
                noise_pos: 0,
                noise_left: total * stages,
                recycled: false,
                timeline: Vec::with_capacity(if collect_timeline { total * stages } else { 0 }),
                collect_timeline,
                counters: cfg
                    .telemetry
                    .counters
                    .then(|| vec![DispatcherCounters::new(); plan.n]),
            });
        }
        let mut eng = Engine {
            forest: self,
            model,
            faults,
            events: EventSlots::new(states.len()),
            states,
            busy_index: 0,
            joins: HashMap::new(),
            remaining: tenants.iter().map(|t| t.total).sum(),
            counters: tenants.iter().any(|t| t.counters.is_some()),
            tenants,
            last_completion: 0.0,
        };
        eng.run();

        let reports = self
            .tenants
            .iter()
            .zip(&mut eng.tenants)
            .map(|(plan, t)| {
                debug_assert_eq!(t.completed + t.dropped, t.started);
                let states = &eng.states[plan.base..plan.base + plan.n];
                let spans: Vec<&[(f64, f64)]> =
                    states.iter().map(|s| s.busy_spans.as_slice()).collect();
                let cfg = plan.cfg;
                let stats =
                    steady_stats_from_completions(&t.completions, cfg.warmup as usize, &spans);
                RunReport {
                    submitted: t.started as u64,
                    completed: t.completed as u64,
                    dropped: t.dropped as u64,
                    faults_fired: t.faults_fired,
                    stats,
                    telemetry: cfg
                        .telemetry
                        .any()
                        .then(|| t.telemetry(self.stations[plan.head].dag, cfg)),
                    timeline: if cfg.record_timeline {
                        std::mem::take(&mut t.timeline)
                    } else {
                        Vec::new()
                    },
                    degraded: None,
                }
            })
            .collect();
        Ok((reports, eng.last_completion))
    }
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    task: usize,
    stage: usize,
    /// Bandwidth demand advertised to co-runners while the stage runs.
    demand: f64,
}

/// Per-run state of one global chunk.
#[derive(Debug)]
struct ChunkState {
    /// Tasks ready to serve (always empty at a head, which admits from
    /// its tenant's object pool). DAG chunks keep it sorted by task
    /// sequence.
    input: VecDeque<usize>,
    busy: Option<InFlight>,
    busy_since: f64,
    /// Contiguous (start, end) busy intervals, one per served task.
    /// Always collected: the measurement window is only known at the end,
    /// so in-window utilization needs the raw intervals.
    busy_spans: Vec<(f64, f64)>,
    /// The in-flight stage dies at its (loss-clamped) completion.
    doomed: bool,
    /// Loss instant of the chunk's PU class, if it is lost at all.
    loss: Option<f64>,
    /// DAG chunks serve strictly in task order: the next task to serve.
    next_seq: usize,
}

/// Per-run state of one tenant.
#[derive(Debug)]
struct TenantRun {
    started: usize,
    total: usize,
    completed: usize,
    dropped: usize,
    faults_fired: u32,
    /// Free task objects waiting at the head.
    pool: usize,
    entry_time: Vec<f64>,
    /// `(entry, exit)` per completed task, in completion order (which at
    /// the in-order tail is also task order).
    completions: Vec<(f64, f64)>,
    /// Liveness per task; in a DAG a dead task flows as a tombstone.
    alive: Vec<bool>,
    noise: NoiseModel,
    /// Prefilled factors of `noise`, consumed in order from `noise_pos`.
    noise_buf: Vec<f64>,
    noise_pos: usize,
    /// Upper bound on the draws the run still needs (one per stage
    /// started), so prefills never sample past the end of the run.
    noise_left: usize,
    /// A chain drop recycled an object to the head outside the normal
    /// completion flow since the last head pump.
    recycled: bool,
    timeline: Vec<TimelineSpan>,
    collect_timeline: bool,
    /// Dispatcher counters per tenant-local chunk, when requested.
    counters: Option<Vec<DispatcherCounters>>,
}

impl TenantRun {
    /// The next factor of the tenant's noise stream: the same values, in
    /// the same order, as successive [`NoiseModel::factor`] calls, drawn in
    /// blocks so the sampler runs in a tight loop.
    fn noise_factor(&mut self) -> f64 {
        if self.noise_pos == self.noise_buf.len() {
            let n = self.noise_left.clamp(1, 64);
            self.noise_left = self.noise_left.saturating_sub(n);
            self.noise_buf.resize(n, 0.0);
            self.noise.fill_factors(&mut self.noise_buf);
            self.noise_pos = 0;
        }
        self.noise_pos += 1;
        self.noise_buf[self.noise_pos - 1]
    }

    fn telemetry(&self, dag: bool, cfg: &RunConfig) -> RunTelemetry {
        let mut tele = RunTelemetry::new(if dag { "des-dag" } else { "des" });
        if let Some(counters) = &self.counters {
            tele.dispatchers = counters
                .iter()
                .enumerate()
                .map(|(i, c)| c.stats(format!("chunk{i}")))
                .collect();
        }
        if cfg.telemetry.spans {
            let mut rec = SpanRecorder::virtual_time(true);
            for ev in &self.timeline {
                rec.record_virtual(
                    ev.chunk as u32,
                    ev.task,
                    ev.stage.map(|s| s as u32),
                    ev.start_us,
                    ev.end_us,
                );
            }
            tele.spans = rec.into_spans();
        }
        tele
    }
}

/// The event loop over a forest: every tenant shares one clock and one
/// interference busy set.
///
/// `faults: None` is the hot path: every fault lookup sits behind one
/// predictable branch and the run is bit-identical to passing an empty
/// [`FaultSpec`].
struct Engine<'r, 'a> {
    forest: &'r Forest<'a>,
    model: &'r mut ServiceModel<'a>,
    faults: Option<&'r FaultSpec>,
    states: Vec<ChunkState>,
    events: EventSlots,
    /// Mixed-radix busy index of `states` (see [`ServiceModel`]).
    busy_index: u64,
    tenants: Vec<TenantRun>,
    /// Whether any tenant collects dispatcher counters.
    counters: bool,
    /// Join fan-in bookkeeping: deliveries so far per (chunk, task).
    joins: HashMap<(usize, usize), u32>,
    /// Tasks of all tenants neither completed nor dropped yet.
    remaining: usize,
    last_completion: f64,
}

impl Engine<'_, '_> {
    fn lost(&self, c: usize, now: f64) -> bool {
        self.states[c].loss.is_some_and(|t| now >= t)
    }

    /// The task's fault at `(c, stage)` if a spec is active. Fault chunk
    /// indices address the global (flattened) chunk list; task indices are
    /// tenant-local sequence numbers.
    fn stage_fault(&self, c: usize, task: usize, stage: usize) -> Option<StageFaultKind> {
        self.faults.and_then(|f| f.stage_fault(c, task, stage))
    }

    fn sample_depth(&mut self, c: usize, depth: usize) {
        if !self.counters {
            return;
        }
        let st = &self.forest.stations[c];
        if let Some(counters) = &mut self.tenants[st.tenant].counters {
            counters[st.local].sample_queue_depth(depth);
        }
    }

    /// Closes the chunk's busy interval at `now` and frees it.
    fn finish_span(&mut self, c: usize, now: f64) {
        let s = &mut self.states[c];
        let since = s.busy_since;
        s.busy_spans.push((since, now));
        if let Some(f) = s.busy.take() {
            self.busy_index -= (f.stage as u64 + 1) * self.model.weight[c];
        }
        if !self.counters {
            return;
        }
        let st = &self.forest.stations[c];
        if let Some(counters) = &mut self.tenants[st.tenant].counters {
            counters[st.local].record_task(Duration::from_secs_f64((now - since) * 1e-6));
        }
    }

    /// Drops `task` at chunk `c` under its tenant's drop rule: a chain
    /// recycles the object to the head at once; a DAG counts the drop once
    /// and forwards a tombstone so joins keep draining.
    fn drop_task(&mut self, c: usize, task: usize, now: f64) {
        let st = &self.forest.stations[c];
        let t = &mut self.tenants[st.tenant];
        if st.dag {
            if std::mem::replace(&mut t.alive[task], false) {
                t.dropped += 1;
                self.remaining -= 1;
            }
            self.forward(c, task, now);
        } else {
            t.dropped += 1;
            t.recycled = true;
            t.pool += 1;
            self.remaining -= 1;
        }
    }

    /// Task `task` (live or tombstoned) leaves chunk `c`: hand it to the
    /// next chain chunk or to every DAG successor that serves it, or retire
    /// it at the tenant's last chunk. A join admits the task once all its
    /// required deliveries are in; sorted insertion plus the in-order
    /// `next_seq` rule keep service deterministic.
    fn forward(&mut self, c: usize, task: usize, now: f64) {
        let forest = self.forest;
        let st = &forest.stations[c];
        if let Some(next) = st.next {
            self.states[next].input.push_back(task);
            self.sample_depth(c, self.states[next].input.len());
            self.pump(next, now);
            return;
        }
        if forest.succs[c].is_empty() {
            // Tail or sink: tombstones were counted dropped at their death
            // site; either way the object returns to the head pool.
            let t = &mut self.tenants[st.tenant];
            if t.alive[task] {
                t.completions.push((t.entry_time[task], now));
                t.completed += 1;
                self.remaining -= 1;
                self.last_completion = self.last_completion.max(now);
            }
            t.pool += 1;
            let pool = t.pool;
            self.sample_depth(c, pool);
            self.pump(st.head, now);
            return;
        }
        for &s in &forest.succs[c] {
            let succ = &forest.stations[s];
            if !succ.serves(task) {
                continue;
            }
            if succ.required > 1 {
                let arrived = self.joins.entry((s, task)).or_insert(0);
                *arrived += 1;
                if *arrived < succ.required {
                    continue;
                }
                self.joins.remove(&(s, task));
            }
            let input = &mut self.states[s].input;
            input.insert(input.partition_point(|&t| t < task), task);
            self.sample_depth(c, self.states[s].input.len());
            self.pump(s, now);
        }
    }

    /// Samples the (possibly perturbed) service time of `(c, stage, task)`
    /// at `now` against the instantaneous busy set and schedules its
    /// completion, clamped to the chunk's loss instant.
    fn start_stage(&mut self, c: usize, task: usize, stage: usize, now: f64) {
        let st = &self.forest.stations[c];
        let t = &mut self.tenants[st.tenant];
        let noise = t.noise_factor();
        let base = self.model.base(c, stage, self.busy_index, &self.states);
        let row = self.model.row[c] + stage;
        let service = base * noise + self.model.sync[row];
        let mut dt = service;
        if let Some(spec) = self.faults {
            // Straggler multiplier, counted as one fault activation at the
            // task's first stage on that chunk.
            let straggle = spec.straggler_factor(c, task);
            if stage == 0 && straggle != 1.0 {
                t.faults_fired += 1;
            }
            dt = service * spec.slowdown_factor(self.model.chunks[c].pu, now) * straggle;
            if let Some(StageFaultKind::Timeout { extra_us }) = spec.stage_fault(c, task, stage) {
                dt += extra_us;
                t.faults_fired += 1;
            }
        }
        let s = &mut self.states[c];
        let mut end = now + dt;
        if let Some(t_loss) = s.loss {
            if end > t_loss {
                // The PU dies mid-service; the stage "completes" at the
                // loss instant as a doomed event and the task drops there.
                end = t_loss;
                s.doomed = true;
            }
        }
        let weight = self.model.weight[c];
        let old = s.busy.map_or(0, |f| f.stage as u64 + 1);
        self.busy_index = self.busy_index - old * weight + (stage as u64 + 1) * weight;
        s.busy = Some(InFlight {
            task,
            stage,
            demand: self.model.demand[row],
        });
        if stage == 0 {
            s.busy_since = now;
        }
        self.events.push(c, end);
        if t.collect_timeline {
            t.timeline.push(TimelineSpan {
                chunk: st.local,
                stage: Some(stage),
                task: task as u64,
                start_us: now,
                end_us: end,
            });
        }
    }

    /// Starts work on idle chunk `c`: admits new tasks at a head, forwards
    /// tombstones and drains fault-induced drops without advancing virtual
    /// time, and dispatches the first live, unfaulted arrival.
    fn pump(&mut self, c: usize, now: f64) {
        let st = &self.forest.stations[c];
        loop {
            if self.states[c].busy.is_some() {
                return;
            }
            let task = if c == st.head {
                let t = &mut self.tenants[st.tenant];
                if t.started >= t.total || t.pool == 0 {
                    return;
                }
                let seq = t.started;
                t.started += 1;
                t.entry_time[seq] = now;
                // A lost head consumes the task stream but keeps its
                // objects: every remaining admission drops immediately.
                if self.states[c].loss.is_some_and(|l| now >= l) {
                    t.alive[seq] = false;
                    t.dropped += 1;
                    t.faults_fired += 1;
                    self.remaining -= 1;
                    continue;
                }
                t.pool -= 1;
                seq
            } else if st.dag {
                let s = &mut self.states[c];
                let task = match s.input.front() {
                    Some(&task) if task == s.next_seq => task,
                    _ => return,
                };
                s.input.pop_front();
                s.next_seq = task + st.replica.map_or(1, |(_, len)| len);
                if !self.tenants[st.tenant].alive[task] {
                    // Tombstones flow onward at zero cost: no service, no
                    // faults, just routing.
                    self.forward(c, task, now);
                    continue;
                }
                task
            } else {
                match self.states[c].input.pop_front() {
                    Some(task) => task,
                    None => return,
                }
            };
            let lost = c != st.head && self.lost(c, now);
            if lost || matches!(self.stage_fault(c, task, 0), Some(StageFaultKind::Error)) {
                self.tenants[st.tenant].faults_fired += 1;
                self.drop_task(c, task, now);
                continue;
            }
            self.start_stage(c, task, 0, now);
            return;
        }
    }

    /// Objects recycled by chain drops re-arm the head outside the normal
    /// completion flow; give it a chance to admit with them.
    fn flush_recycled(&mut self, tenant: usize, now: f64) {
        while self.tenants[tenant].recycled {
            self.tenants[tenant].recycled = false;
            self.pump(self.forest.tenants[tenant].head, now);
        }
    }

    fn run(&mut self) {
        // Prime every tenant's head at t = 0, in tenant order.
        let forest = self.forest;
        for plan in &forest.tenants {
            self.pump(plan.head, 0.0);
        }
        while self.remaining > 0 {
            let (now, c) = self.events.pop();
            let tenant = self.forest.stations[c].tenant;
            let inflight = self.states[c].busy.expect("event implies busy chunk");
            let next_stage = inflight.stage + 1;
            if self.states[c].doomed {
                // The PU died mid-service at `now` (its loss instant).
                self.states[c].doomed = false;
                self.finish_span(c, now);
                self.tenants[tenant].faults_fired += 1;
                self.drop_task(c, inflight.task, now);
            } else if next_stage < self.forest.stations[c].stages {
                if !matches!(
                    self.stage_fault(c, inflight.task, next_stage),
                    Some(StageFaultKind::Error)
                ) {
                    // Next stage of the same chunk; re-sample interference.
                    self.start_stage(c, inflight.task, next_stage, now);
                    continue;
                }
                self.tenants[tenant].faults_fired += 1;
                self.finish_span(c, now);
                self.drop_task(c, inflight.task, now);
            } else {
                // Chunk finished its last stage for this task.
                self.finish_span(c, now);
                self.forward(c, inflight.task, now);
            }
            // Serve the next arrival (a doomed chunk drains its queue as
            // drops) and let recycled objects re-arm the head.
            self.pump(c, now);
            self.flush_recycled(tenant, now);
        }
    }
}

/// Simulates pipelined execution of `chunks` on `soc`, optionally under
/// the perturbations in `faults`.
///
/// Fault semantics — every activation is a pure function of
/// `(chunk, task, stage, class, virtual time)`, so faulted runs are exactly
/// as seed-deterministic as fault-free ones:
///
/// - **Slowdown ramps** multiply a stage's sampled service time by the
///   class factor in effect at dispatch time.
/// - **Stragglers** multiply every stage of one `(chunk, task)` pair.
/// - **Stage `Timeout` faults** add `extra_us` to that one iteration.
/// - **Stage `Error` faults** drop the task; its object recycles to the
///   pipeline head and the chunk moves on.
/// - **PU loss** kills the class at `at_us`: in-flight work on it dies at
///   the loss instant, queued and future arrivals at its chunks drop (their
///   objects recycle), and the rest of the pipeline drains. A lost *head*
///   consumes the remaining task stream as immediate drops.
///
/// The engine maintains `completed + dropped == submitted` and never
/// deadlocks; `faults == None` skips every fault lookup and is
/// bit-identical to an empty spec.
///
/// # Errors
///
/// Returns [`SocError::EmptySimulation`] if `chunks` is empty, any chunk
/// has no stages, or `cfg.tasks == 0`; [`SocError::MissingPu`] if a chunk
/// names a PU class the device lacks; [`SocError::InvalidSpec`] if
/// `faults` fails [`FaultSpec::validate`].
pub fn simulate(
    soc: &SocSpec,
    chunks: &[ChunkSpec],
    cfg: &RunConfig,
    faults: Option<&FaultSpec>,
) -> Result<RunReport, SocError> {
    let (forest, mut model) = Forest::build(soc, &[TenantInput::chain(chunks, cfg)])?;
    let (mut reports, _) = forest.run(&mut model, faults, None)?;
    Ok(reports.remove(0))
}

/// Simulates pipelined execution of a fork/join chunk DAG on `soc`,
/// optionally under the perturbations in `faults`.
///
/// Chain-shaped specs ([`DagPipelineSpec::is_chain`]) are priced exactly
/// like [`simulate`]. General DAGs run with sibling branches and replica
/// chunks executing concurrently and charging each other interference
/// through the shared busy set; joins and replica merges serve strictly in
/// task order, and drops tombstone through the graph.
///
/// # Errors
///
/// Returns [`SocError::EmptySimulation`] for empty chunks/stages/tasks,
/// [`SocError::MissingPu`] for unknown PU classes,
/// [`SocError::BadDag`] for structurally invalid graphs (cycles, multiple
/// sources or sinks, malformed replica groups), and
/// [`SocError::InvalidSpec`] for a malformed fault spec.
pub fn simulate_dag(
    soc: &SocSpec,
    spec: &DagPipelineSpec,
    cfg: &RunConfig,
    faults: Option<&FaultSpec>,
) -> Result<RunReport, SocError> {
    let tenant = TenantInput {
        edges: Some(&spec.edges),
        replica_groups: &spec.replica_groups,
        ..TenantInput::chain(&spec.chunks, cfg)
    };
    let (forest, mut model) = Forest::build(soc, &[tenant])?;
    let (mut reports, _) = forest.run(&mut model, faults, None)?;
    Ok(reports.remove(0))
}

/// Simulates `tenants` co-running on `soc` in one shared virtual
/// timeline, optionally under the perturbations in `faults`.
///
/// Every tenant runs its own pipeline (own task stream, buffers, warmup
/// window, telemetry, and noise stream seeded from its `cfg.seed`), while
/// service times are priced against the union busy-set of *all* tenants'
/// chunks — this is the co-location interference the admission policies in
/// `bt-faults` reason about. Cross-tenant co-runners have their advertised
/// bandwidth demand scaled by
/// [`crate::InterferenceModel::cross_tenant_penalty`], which at its
/// default of 1.0 prices them exactly like intra-app co-runners. Fault
/// specs address chunks by their index in the flattened global chunk list
/// (tenant 0's chunks first, then tenant 1's, …); task indices are
/// tenant-local.
///
/// Determinism: bit-replayable per (tenant set, seed vector) — two calls
/// with identical inputs produce identical reports, and a single-tenant
/// call is bit-identical to [`simulate`] (or [`simulate_dag`] for a DAG
/// tenant).
///
/// # Errors
///
/// Returns [`SocError::EmptySimulation`] if `tenants` is empty or any
/// tenant has no chunks, a stageless chunk, or `cfg.tasks == 0`;
/// [`SocError::MissingPu`] if any chunk names a PU class the device
/// lacks; [`SocError::BadDag`] if a tenant's explicit edge set is
/// malformed (out of range, cyclic, or without a unique source/sink);
/// [`SocError::InvalidSpec`] for a malformed fault spec.
pub fn simulate_multi(
    soc: &SocSpec,
    tenants: &[TenantSpec],
    faults: Option<&FaultSpec>,
) -> Result<MultiRunReport, SocError> {
    let inputs: Vec<TenantInput> = tenants
        .iter()
        .map(|t| TenantInput {
            name: &t.name,
            edges: t.edges.as_deref(),
            ..TenantInput::chain(&t.chunks, &t.cfg)
        })
        .collect();
    let (forest, mut model) = Forest::build(soc, &inputs)?;
    let (reports, last_completion) = forest.run(&mut model, faults, None)?;
    let completed: u64 = reports.iter().map(|r| r.completed).sum();
    let makespan_us = if completed > 0 { last_completion } else { 0.0 };
    let throughput_hz = if makespan_us > 0.0 {
        completed as f64 / (makespan_us / 1e6)
    } else {
        0.0
    };
    Ok(MultiRunReport {
        tenants: reports,
        makespan_us,
        throughput_hz,
    })
}

/// Simulates `lanes.len()` runs of `chunks` on `soc`, one per
/// [`DesSeedSpec`], each bit-identical to [`simulate`] with that lane's
/// seed and fault spec.
///
/// `cfg` supplies everything except the seed (tasks, warmup, buffers,
/// noise sigma, service cache, timeline/telemetry collection);
/// [`RunConfig::seed`] is ignored in favor of each lane's own. The lanes
/// share one forest setup and one memo — one lane's miss prices every
/// later lane's hit, and memoized values are a pure function of (stage,
/// busy set), so sharing cannot change any lane's bits.
///
/// # Errors
///
/// Returns [`SocError::EmptySimulation`] if `chunks` or `lanes` is empty,
/// any chunk has no stages, or `cfg.tasks == 0`; [`SocError::MissingPu`]
/// if a chunk names a PU class the device lacks; [`SocError::InvalidSpec`]
/// if any lane's fault spec is malformed.
pub fn simulate_batch(
    soc: &SocSpec,
    chunks: &[ChunkSpec],
    cfg: &RunConfig,
    lanes: &[DesSeedSpec],
) -> Result<Vec<RunReport>, SocError> {
    if lanes.is_empty() {
        return Err(SocError::EmptySimulation);
    }
    let (forest, mut model) = Forest::build(soc, &[TenantInput::chain(chunks, cfg)])?;
    lanes
        .iter()
        .map(|lane| {
            let (mut reports, _) = forest.run(&mut model, lane.faults.as_ref(), Some(lane.seed))?;
            Ok(reports.remove(0))
        })
        .collect()
}

/// [`simulate_batch`] sharded over up to `max_threads` scoped threads:
/// lanes split into contiguous shards, each shard one [`simulate_batch`]
/// call, results concatenated in lane order. Lanes are independent, so
/// sharding cannot change any lane's bits — only which lanes share a memo
/// instance, which is value-neutral.
///
/// # Errors
///
/// Same contract as [`simulate_batch`].
pub fn simulate_batch_parallel(
    soc: &SocSpec,
    chunks: &[ChunkSpec],
    cfg: &RunConfig,
    lanes: &[DesSeedSpec],
    max_threads: usize,
) -> Result<Vec<RunReport>, SocError> {
    let workers = max_threads.max(1).min(lanes.len());
    if workers <= 1 {
        return simulate_batch(soc, chunks, cfg, lanes);
    }
    // Contiguous shard bounds, remainder spread over the leading shards.
    let per = lanes.len() / workers;
    let extra = lanes.len() % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = per + usize::from(w < extra);
        bounds.push((start, start + len));
        start += len;
    }
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(lo, hi)| scope.spawn(move || simulate_batch(soc, chunks, cfg, &lanes[lo..hi])))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch shard panicked"))
            .collect::<Vec<_>>()
    });
    let mut out = Vec::with_capacity(lanes.len());
    for shard in results {
        out.extend(shard?);
    }
    Ok(out)
}

/// Builds steady-state stats over `completions` — `(entry, exit)` pairs
/// of the tasks that actually completed, in task-sequence order (at the
/// static pipeline's in-order tail this is also completion order) — using
/// the departure-to-departure convention shared by every engine. The first
/// `warmup` *completions* (whatever their sequence numbers) are excluded as
/// the pipeline-fill transient; dropped tasks contribute nothing. Shared by
/// the static and dynamic engines; returns `None` when nothing completed.
pub(crate) fn steady_stats_from_completions(
    completions: &[(f64, f64)],
    warmup: usize,
    busy_spans: &[&[(f64, f64)]],
) -> Option<RunStats> {
    let n = completions.len();
    if n == 0 {
        return None;
    }
    let (w_start, skip, intervals) = if warmup > 0 && n > warmup {
        (completions[warmup - 1].1, warmup, (n - warmup) as f64)
    } else if n > 1 {
        (completions[0].1, 0, (n - 1) as f64)
    } else {
        (completions[0].0, 0, 1.0)
    };
    let w_end = completions[n - 1].1;
    let makespan = (w_end - w_start).max(1e-9);
    let measured = &completions[skip..];
    let mean_latency = measured.iter().map(|(e, x)| x - e).sum::<f64>() / measured.len() as f64;

    let chunk_utilization: Vec<f64> = busy_spans
        .iter()
        .map(|spans| {
            let in_window: f64 = spans
                .iter()
                .map(|&(t0, t1)| (t1.min(w_end) - t0.max(w_start)).max(0.0))
                .sum();
            in_window / makespan
        })
        .collect();
    let bottleneck_chunk = chunk_utilization
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("utilization is never NaN"))
        .map(|(i, _)| i)
        .unwrap_or(0);

    Some(RunStats {
        makespan: Micros::new(makespan),
        mean_task_latency: Micros::new(mean_latency),
        time_per_task: Micros::new(makespan / intervals.max(1.0)),
        throughput_hz: intervals.max(1.0) / (makespan / 1e6),
        chunk_utilization,
        bottleneck_chunk,
        tasks: (n - skip) as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LoadContext;
    use crate::devices;
    use bt_telemetry::TelemetryConfig;

    fn noiseless() -> RunConfig {
        RunConfig {
            tasks: 30,
            warmup: 5,
            seed: 1,
            noise_sigma: 0.0,
            ..RunConfig::default()
        }
    }

    fn stage(flops: f64) -> WorkProfile {
        WorkProfile::new(flops, flops / 4.0)
    }

    /// Clean-run stats, panicking if the run degraded.
    fn stats(soc: &SocSpec, chunks: &[ChunkSpec], cfg: &RunConfig) -> RunStats {
        simulate(soc, chunks, cfg, None)
            .expect("simulates")
            .expect_stats()
            .clone()
    }

    #[test]
    fn empty_inputs_rejected() {
        let soc = devices::pixel_7a();
        assert!(matches!(
            simulate(&soc, &[], &noiseless(), None),
            Err(SocError::EmptySimulation)
        ));
        let chunks = [ChunkSpec::new(PuClass::BigCpu, vec![])];
        assert!(matches!(
            simulate(&soc, &chunks, &noiseless(), None),
            Err(SocError::EmptySimulation)
        ));
    }

    #[test]
    fn missing_pu_rejected() {
        let soc = devices::jetson_orin_nano();
        let chunks = [ChunkSpec::new(PuClass::LittleCpu, vec![stage(1e6)])];
        assert!(matches!(
            simulate(&soc, &chunks, &noiseless(), None),
            Err(SocError::MissingPu(PuClass::LittleCpu))
        ));
    }

    #[test]
    fn single_chunk_matches_serial_sum() {
        let soc = devices::jetson_orin_nano();
        let stages = vec![stage(1e7), stage(2e7), stage(5e6)];
        let chunks = [ChunkSpec::new(PuClass::BigCpu, stages.clone())];
        let report = stats(&soc, &chunks, &noiseless());
        let pu = soc.pu(PuClass::BigCpu).unwrap();
        let serial: f64 = stages
            .iter()
            .map(|w| cost::latency(w, pu, &soc, &LoadContext::isolated()).as_f64())
            .sum();
        let per_task = report.time_per_task.as_f64();
        assert!(
            (per_task - serial).abs() / serial < 0.02,
            "per-task {per_task} vs serial {serial}"
        );
    }

    #[test]
    fn two_balanced_chunks_double_throughput() {
        let soc = devices::jetson_orin_nano();
        // Two equal compute-bound stages; no interference model coupling
        // beyond DVFS, which for Jetson slows CPUs ~1.33x under load.
        let one = [ChunkSpec::new(
            PuClass::BigCpu,
            vec![stage(2e7), stage(2e7)],
        )];
        let two = [
            ChunkSpec::new(PuClass::BigCpu, vec![stage(2e7)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(2e7)]),
        ];
        let serial = stats(&soc, &one, &noiseless());
        let piped = stats(&soc, &two, &noiseless());
        assert!(
            piped.time_per_task < serial.time_per_task,
            "pipelining should raise throughput: {} vs {}",
            piped.time_per_task,
            serial.time_per_task
        );
    }

    #[test]
    fn bottleneck_chunk_has_highest_utilization() {
        let soc = devices::jetson_orin_nano();
        let chunks = [
            ChunkSpec::new(PuClass::BigCpu, vec![stage(5e7)]), // heavy
            ChunkSpec::new(PuClass::Gpu, vec![stage(1e6)]),    // light
        ];
        let report = stats(&soc, &chunks, &noiseless());
        assert_eq!(report.bottleneck_chunk, 0);
        assert!(report.chunk_utilization[0] > report.chunk_utilization[1]);
    }

    #[test]
    fn throughput_consistent_with_time_per_task() {
        let soc = devices::pixel_7a();
        let chunks = [
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(1e7)]),
        ];
        let r = stats(&soc, &chunks, &noiseless());
        let expect = 1e6 / r.time_per_task.as_f64();
        assert!((r.throughput_hz - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let soc = devices::pixel_7a();
        let chunks = [
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(8e6)]),
        ];
        let cfg = RunConfig {
            noise_sigma: 0.05,
            seed: 42,
            ..noiseless()
        };
        let a = stats(&soc, &chunks, &cfg);
        let b = stats(&soc, &chunks, &cfg);
        assert_eq!(a.makespan.as_f64(), b.makespan.as_f64());
        let cfg2 = RunConfig { seed: 43, ..cfg };
        let c = stats(&soc, &chunks, &cfg2);
        assert_ne!(a.makespan.as_f64(), c.makespan.as_f64());
    }

    #[test]
    fn mean_task_latency_at_least_time_per_task() {
        // Residence time includes queueing, so it can't be below the
        // steady-state inter-departure time in a balanced pipeline.
        let soc = devices::pixel_7a();
        let chunks = [
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7)]),
            ChunkSpec::new(PuClass::MediumCpu, vec![stage(9e6)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(1.1e7)]),
        ];
        let r = stats(&soc, &chunks, &noiseless());
        assert!(r.mean_task_latency.as_f64() >= 0.9 * r.time_per_task.as_f64());
    }

    #[test]
    fn zero_warmup_agrees_with_warmed_measurement() {
        // Departure-to-departure windows make the steady-state estimate
        // independent of warmup in a noiseless simulation. Before the
        // window fix, warmup == 0 anchored at the first *entry* and
        // divided by `tasks`, charging the pipeline-fill transient to
        // every task.
        let soc = devices::pixel_7a();
        let chunks = [
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(9e6)]),
        ];
        let warm = stats(&soc, &chunks, &noiseless());
        let cold_cfg = RunConfig {
            warmup: 0,
            ..noiseless()
        };
        let cold = stats(&soc, &chunks, &cold_cfg);
        let (a, b) = (warm.time_per_task.as_f64(), cold.time_per_task.as_f64());
        assert!(
            (a - b).abs() / a < 1e-6,
            "warmup=5 gives {a} µs/task but warmup=0 gives {b}"
        );
    }

    #[test]
    fn utilization_clipped_to_window_stays_bounded() {
        let soc = devices::pixel_7a();
        let chunks = [
            ChunkSpec::new(PuClass::BigCpu, vec![stage(3e7)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(1e6)]),
        ];
        for warmup in [0, 1, 5] {
            let cfg = RunConfig {
                warmup,
                ..noiseless()
            };
            let r = stats(&soc, &chunks, &cfg);
            for (i, u) in r.chunk_utilization.iter().enumerate() {
                assert!(
                    (0.0..=1.0).contains(u),
                    "warmup={warmup} chunk{i} utilization {u} out of bounds"
                );
            }
            // The heavy chunk saturates its window.
            assert!(r.chunk_utilization[0] > 0.9);
        }
    }

    #[test]
    fn telemetry_mirrors_run_structure() {
        let soc = devices::pixel_7a();
        let chunks = [
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7), stage(5e6)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(8e6)]),
        ];
        let cfg = RunConfig {
            telemetry: TelemetryConfig::full(),
            ..noiseless()
        };
        let r = simulate(&soc, &chunks, &cfg, None).unwrap();
        let tele = r.telemetry.expect("telemetry enabled");
        assert_eq!(tele.source, "des");
        assert_eq!(tele.dispatchers.len(), 2);
        let total = (cfg.tasks + cfg.warmup) as u64;
        for d in &tele.dispatchers {
            assert_eq!(d.tasks, total);
            assert!(d.queue_samples > 0);
        }
        // Spans cover every stage execution: 2 stages + 1 stage per task.
        assert_eq!(tele.spans.len(), 3 * total as usize);
        // Timeline stays empty unless record_timeline was requested.
        assert!(r.timeline.is_empty());

        let off = simulate(&soc, &chunks, &noiseless(), None).unwrap();
        assert!(off.telemetry.is_none());
    }

    #[test]
    fn service_cache_is_bit_identical_to_uncached() {
        let soc = devices::pixel_7a();
        let chunks = [
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7), stage(5e6)]),
            ChunkSpec::new(PuClass::MediumCpu, vec![stage(7e6)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(8e6)]),
        ];
        let cached = RunConfig {
            noise_sigma: 0.05,
            seed: 9,
            ..noiseless()
        };
        let uncached = RunConfig {
            service_cache: false,
            ..cached.clone()
        };
        let a = stats(&soc, &chunks, &cached);
        let b = stats(&soc, &chunks, &uncached);
        assert_eq!(a.makespan.as_f64(), b.makespan.as_f64());
        assert_eq!(a.mean_task_latency.as_f64(), b.mean_task_latency.as_f64());
        assert_eq!(a.time_per_task.as_f64(), b.time_per_task.as_f64());
        assert_eq!(a.chunk_utilization, b.chunk_utilization);
        assert_eq!(a.bottleneck_chunk, b.bottleneck_chunk);
    }

    #[test]
    fn every_memo_layout_is_bit_identical_to_uncached() {
        // A short chain tabulates its key space directly, a wide one hashes
        // it, a 64-chunk one overflows `u64` and runs unmemoized, and a
        // co-run prices cross-tenant busy sets through the same memo.
        let soc = devices::pixel_7a();
        let classes = [
            PuClass::BigCpu,
            PuClass::MediumCpu,
            PuClass::Gpu,
            PuClass::LittleCpu,
        ];
        let chain = |n: usize, stages: usize| -> Vec<ChunkSpec> {
            (0..n)
                .map(|i| {
                    let flops = 1e6 + 1e5 * i as f64;
                    ChunkSpec::new(classes[i % 4], vec![stage(flops); stages])
                })
                .collect()
        };
        let cached = RunConfig {
            noise_sigma: 0.05,
            seed: 5,
            ..noiseless()
        };
        let uncached = RunConfig {
            service_cache: false,
            ..cached.clone()
        };
        for chunks in [chain(3, 2), chain(10, 2), chain(64, 1)] {
            let a = simulate(&soc, &chunks, &cached, None).unwrap();
            let b = simulate(&soc, &chunks, &uncached, None).unwrap();
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{} chunks",
                chunks.len()
            );
        }
        let co_run = |cfg: &RunConfig| {
            let tenants = [
                TenantSpec::new("a", chain(3, 2), cfg.clone()),
                TenantSpec::new(
                    "b",
                    chain(2, 1),
                    RunConfig {
                        seed: 6,
                        ..cfg.clone()
                    },
                ),
            ];
            format!("{:?}", simulate_multi(&soc, &tenants, None).unwrap())
        };
        assert_eq!(co_run(&cached), co_run(&uncached));
    }

    #[test]
    fn interference_raises_pipeline_cost_vs_isolated_sum() {
        // On the Pixel, two concurrently busy CPU chunks slow each other
        // down (DVFS 1.3x), so the pipeline's bottleneck exceeds the
        // isolated latency of the heavier chunk.
        let soc = devices::pixel_7a();
        let heavy = stage(2e7);
        let pu = soc.pu(PuClass::BigCpu).unwrap();
        let iso = cost::latency(&heavy, pu, &soc, &LoadContext::isolated()).as_f64();
        let chunks = [
            ChunkSpec::new(PuClass::BigCpu, vec![heavy.clone()]),
            ChunkSpec::new(PuClass::MediumCpu, vec![stage(1.9e7)]),
        ];
        let r = stats(&soc, &chunks, &noiseless());
        assert!(
            r.time_per_task.as_f64() > iso * 1.1,
            "contended bottleneck {} should exceed isolated {}",
            r.time_per_task.as_f64(),
            iso
        );
    }

    // ------------------------- fault injection --------------------------

    use crate::fault::{PuLoss, SlowdownRamp, StageFault, Straggler};

    fn fault_chunks() -> Vec<ChunkSpec> {
        vec![
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7), stage(5e6)]),
            ChunkSpec::new(PuClass::MediumCpu, vec![stage(7e6)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(8e6)]),
        ]
    }

    #[test]
    fn none_faults_is_bit_identical_to_empty_spec() {
        // The `None` fast path skips every fault lookup; the empty-spec
        // path walks them and multiplies by 1.0. Both must consume the
        // noise stream identically and report identical numbers.
        let soc = devices::pixel_7a();
        let chunks = fault_chunks();
        let cfg = RunConfig {
            noise_sigma: 0.05,
            seed: 9,
            record_timeline: true,
            telemetry: TelemetryConfig::full(),
            ..noiseless()
        };
        let plain = simulate(&soc, &chunks, &cfg, None).unwrap();
        let empty = FaultSpec::none();
        let faulted = simulate(&soc, &chunks, &cfg, Some(&empty)).unwrap();
        assert_eq!(faulted.submitted, u64::from(cfg.tasks + cfg.warmup));
        assert_eq!(faulted.completed, faulted.submitted);
        assert_eq!(faulted.dropped, 0);
        assert_eq!(faulted.faults_fired, 0);
        assert!(!faulted.is_degraded());
        let (r, p) = (faulted.expect_stats(), plain.expect_stats());
        assert_eq!(r.makespan.as_f64(), p.makespan.as_f64());
        assert_eq!(r.mean_task_latency.as_f64(), p.mean_task_latency.as_f64());
        assert_eq!(r.time_per_task.as_f64(), p.time_per_task.as_f64());
        assert_eq!(r.chunk_utilization, p.chunk_utilization);
        assert_eq!(r.bottleneck_chunk, p.bottleneck_chunk);
        assert_eq!(r.tasks, p.tasks);
        assert_eq!(faulted.timeline, plain.timeline);
        let (a, b) = (faulted.telemetry.unwrap(), plain.telemetry.unwrap());
        assert_eq!(a.dispatchers.len(), b.dispatchers.len());
        assert_eq!(a.spans.len(), b.spans.len());
    }

    #[test]
    fn slowdown_ramp_inflates_time_per_task() {
        let soc = devices::pixel_7a();
        let chunks = fault_chunks();
        let base = stats(&soc, &chunks, &noiseless());
        let spec = FaultSpec {
            slowdowns: vec![SlowdownRamp {
                class: PuClass::BigCpu,
                start_us: 0.0,
                ramp_us: 0.0,
                factor: 3.0,
            }],
            ..FaultSpec::default()
        };
        let r = simulate(&soc, &chunks, &noiseless(), Some(&spec)).unwrap();
        let r = r.expect_stats();
        assert!(
            r.time_per_task.as_f64() > base.time_per_task.as_f64() * 1.5,
            "throttled {} vs base {}",
            r.time_per_task,
            base.time_per_task
        );
    }

    #[test]
    fn straggler_fires_once_and_completes_everything() {
        let soc = devices::pixel_7a();
        let chunks = fault_chunks();
        let spec = FaultSpec {
            stragglers: vec![Straggler {
                chunk: 1,
                task: 7,
                factor: 20.0,
            }],
            ..FaultSpec::default()
        };
        let r = simulate(&soc, &chunks, &noiseless(), Some(&spec)).unwrap();
        assert_eq!(r.faults_fired, 1);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.completed, r.submitted);
        let base = stats(&soc, &chunks, &noiseless());
        assert!(r.expect_stats().makespan.as_f64() > base.makespan.as_f64());
    }

    #[test]
    fn stage_error_drops_exactly_that_task() {
        let soc = devices::pixel_7a();
        let chunks = fault_chunks();
        // Second stage of the first chunk, mid-stream task.
        let spec = FaultSpec {
            stage_faults: vec![StageFault {
                chunk: 0,
                task: 12,
                stage: 1,
                kind: StageFaultKind::Error,
            }],
            ..FaultSpec::default()
        };
        let r = simulate(&soc, &chunks, &noiseless(), Some(&spec)).unwrap();
        assert_eq!(r.dropped, 1);
        assert_eq!(r.completed, r.submitted - 1);
        assert!(r.is_degraded());
        assert!(r.stats.is_some());
    }

    #[test]
    fn stage_timeout_adds_its_delay() {
        let soc = devices::pixel_7a();
        let chunks = fault_chunks();
        let base = stats(&soc, &chunks, &noiseless());
        let extra = 5e4;
        let spec = FaultSpec {
            stage_faults: vec![StageFault {
                chunk: 2,
                task: 15,
                stage: 0,
                kind: StageFaultKind::Timeout { extra_us: extra },
            }],
            ..FaultSpec::default()
        };
        let r = simulate(&soc, &chunks, &noiseless(), Some(&spec)).unwrap();
        assert_eq!(r.dropped, 0);
        assert_eq!(r.faults_fired, 1);
        let faulted = r.expect_stats();
        // The stall lands inside the measured window of the tail chunk, so
        // the makespan grows by at least most of the injected delay.
        assert!(
            faulted.makespan.as_f64() > base.makespan.as_f64() + 0.5 * extra,
            "timeout did not stretch the window: {} vs {}",
            faulted.makespan,
            base.makespan
        );
    }

    #[test]
    fn head_loss_at_time_zero_drops_everything() {
        let soc = devices::pixel_7a();
        let chunks = fault_chunks();
        let spec = FaultSpec {
            losses: vec![PuLoss {
                class: PuClass::BigCpu,
                at_us: 0.0,
            }],
            ..FaultSpec::default()
        };
        let r = simulate(&soc, &chunks, &noiseless(), Some(&spec)).unwrap();
        assert_eq!(r.completed, 0);
        assert_eq!(r.dropped, r.submitted);
        assert!(r.stats.is_none());
        assert!(r.is_degraded());
    }

    #[test]
    fn midrun_tail_loss_drains_and_degrades() {
        let soc = devices::pixel_7a();
        let chunks = fault_chunks();
        let cfg = RunConfig {
            record_timeline: true,
            ..noiseless()
        };
        let base = simulate(&soc, &chunks, &cfg, None).unwrap();
        let t_end = base
            .timeline
            .iter()
            .map(|e| e.end_us)
            .fold(0.0f64, f64::max);
        let spec = FaultSpec {
            losses: vec![PuLoss {
                class: PuClass::Gpu,
                at_us: t_end / 2.0,
            }],
            ..FaultSpec::default()
        };
        let r = simulate(&soc, &chunks, &noiseless(), Some(&spec)).unwrap();
        assert!(r.completed > 0, "tasks before the loss should complete");
        assert!(r.dropped > 0, "tasks after the loss should drop");
        assert_eq!(r.completed + r.dropped, r.submitted);
        assert!(r.stats.is_some());
    }

    #[test]
    fn faulted_runs_are_seed_deterministic() {
        let soc = devices::pixel_7a();
        let chunks = fault_chunks();
        let cfg = RunConfig {
            noise_sigma: 0.05,
            seed: 77,
            ..noiseless()
        };
        let spec = FaultSpec {
            slowdowns: vec![SlowdownRamp {
                class: PuClass::MediumCpu,
                start_us: 500.0,
                ramp_us: 1000.0,
                factor: 2.0,
            }],
            stage_faults: vec![StageFault {
                chunk: 0,
                task: 9,
                stage: 0,
                kind: StageFaultKind::Error,
            }],
            ..FaultSpec::default()
        };
        let a = simulate(&soc, &chunks, &cfg, Some(&spec)).unwrap();
        let b = simulate(&soc, &chunks, &cfg, Some(&spec)).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let other = simulate(&soc, &chunks, &RunConfig { seed: 78, ..cfg }, Some(&spec)).unwrap();
        assert_ne!(
            a.expect_stats().makespan.as_f64(),
            other.expect_stats().makespan.as_f64()
        );
    }
}

#[cfg(test)]
mod dag_tests {
    use super::*;
    use crate::devices;
    use crate::fault::{PuLoss, StageFault, Straggler};
    use crate::{PuClass, WorkProfile};

    fn noiseless() -> RunConfig {
        RunConfig {
            tasks: 30,
            warmup: 5,
            seed: 1,
            noise_sigma: 0.0,
            ..RunConfig::default()
        }
    }

    fn stage(flops: f64) -> WorkProfile {
        WorkProfile::new(flops, flops / 4.0)
    }

    /// Diamond: 0 → {1, 2} → 3.
    fn diamond(mid: f64) -> DagPipelineSpec {
        DagPipelineSpec::new(
            vec![
                ChunkSpec::new(PuClass::BigCpu, vec![stage(5e6)]),
                ChunkSpec::new(PuClass::MediumCpu, vec![stage(mid)]),
                ChunkSpec::new(PuClass::Gpu, vec![stage(mid)]),
                ChunkSpec::new(PuClass::LittleCpu, vec![stage(4e6)]),
            ],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        )
    }

    #[test]
    fn chain_spec_is_bit_identical_to_chain_engine() {
        let soc = devices::pixel_7a();
        let chunks = vec![
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7), stage(5e6)]),
            ChunkSpec::new(PuClass::MediumCpu, vec![stage(7e6)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(8e6)]),
        ];
        let cfg = RunConfig {
            noise_sigma: 0.05,
            seed: 9,
            record_timeline: true,
            ..noiseless()
        };
        let spec = DagPipelineSpec::chain(chunks.clone());
        assert!(spec.is_chain());
        let a = simulate_dag(&soc, &spec, &cfg, None).unwrap();
        let b = simulate(&soc, &chunks, &cfg, None).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn structural_validation() {
        let soc = devices::pixel_7a();
        let cfg = noiseless();
        let two = || {
            vec![
                ChunkSpec::new(PuClass::BigCpu, vec![stage(1e6)]),
                ChunkSpec::new(PuClass::Gpu, vec![stage(1e6)]),
            ]
        };
        // Cycle.
        let spec = DagPipelineSpec::new(two(), vec![(0, 1), (1, 0)]);
        assert!(matches!(
            simulate_dag(&soc, &spec, &cfg, None),
            Err(SocError::BadDag { .. })
        ));
        // Two sources / two sinks (disconnected pair).
        let spec = DagPipelineSpec::new(two(), vec![]);
        assert!(matches!(
            simulate_dag(&soc, &spec, &cfg, None),
            Err(SocError::BadDag { .. })
        ));
        // Replica group containing the sink.
        let spec = diamond(1e6).with_replica_group(vec![2, 3]);
        assert!(matches!(
            simulate_dag(&soc, &spec, &cfg, None),
            Err(SocError::BadDag { .. })
        ));
        // Replica members with different neighbours.
        let spec = DagPipelineSpec::new(
            vec![
                ChunkSpec::new(PuClass::BigCpu, vec![stage(1e6)]),
                ChunkSpec::new(PuClass::MediumCpu, vec![stage(1e6)]),
                ChunkSpec::new(PuClass::Gpu, vec![stage(1e6)]),
                ChunkSpec::new(PuClass::LittleCpu, vec![stage(1e6)]),
            ],
            vec![(0, 1), (1, 2), (2, 3)],
        )
        .with_replica_group(vec![1, 2]);
        assert!(matches!(
            simulate_dag(&soc, &spec, &cfg, None),
            Err(SocError::BadDag { .. })
        ));
    }

    #[test]
    fn parallel_branches_cut_task_latency() {
        // The same four chunks, forked vs linearized. With a deep object
        // pool both are backpressure-bound (Little's law pins residence
        // time to pool / throughput), so run one task at a time: the
        // latency then *is* the critical path, which the fork shortens by
        // overlapping the branches.
        let soc = devices::pixel_7a();
        let fork = diamond(8e6);
        let line = DagPipelineSpec::chain(fork.chunks.clone());
        let cfg = RunConfig {
            buffers: 1,
            ..noiseless()
        };
        let f = simulate_dag(&soc, &fork, &cfg, None).unwrap();
        let l = simulate_dag(&soc, &line, &cfg, None).unwrap();
        let (fs, ls) = (f.expect_stats(), l.expect_stats());
        assert!(
            fs.mean_task_latency.as_f64() < ls.mean_task_latency.as_f64(),
            "forked latency {} should beat linearized {}",
            fs.mean_task_latency,
            ls.mean_task_latency
        );
    }

    #[test]
    fn branch_overlap_is_priced_as_interference() {
        // Run the diamond with a heavy CPU branch pair: the busy set at
        // dispatch contains the sibling, so per-stage service exceeds the
        // isolated latency. Detect it via the timeline: sibling spans
        // overlap in virtual time.
        let soc = devices::pixel_7a();
        let spec = diamond(2e7);
        let cfg = RunConfig {
            record_timeline: true,
            ..noiseless()
        };
        let r = simulate_dag(&soc, &spec, &cfg, None).unwrap();
        let spans = |c: usize| -> Vec<(f64, f64)> {
            r.timeline
                .iter()
                .filter(|e| e.chunk == c)
                .map(|e| (e.start_us, e.end_us))
                .collect()
        };
        let (b1, b2) = (spans(1), spans(2));
        let overlap = b1
            .iter()
            .any(|&(s1, e1)| b2.iter().any(|&(s2, e2)| s1.max(s2) < e1.min(e2) - 1e-9));
        assert!(overlap, "sibling branches must actually run concurrently");
    }

    #[test]
    fn replica_group_scales_the_bottleneck() {
        let soc = devices::pixel_7a();
        let heavy = 3e7;
        // 0 → 1 → 2 with a dominant middle chunk…
        let plain = DagPipelineSpec::chain(vec![
            ChunkSpec::new(PuClass::LittleCpu, vec![stage(1e6)]),
            ChunkSpec::new(PuClass::BigCpu, vec![stage(heavy)]),
            ChunkSpec::new(PuClass::MediumCpu, vec![stage(2e6)]),
        ]);
        // …vs the same pipeline with the middle chunk replicated on
        // (BigCpu, Gpu), each replica serving alternate tasks.
        let replicated = DagPipelineSpec::new(
            vec![
                ChunkSpec::new(PuClass::LittleCpu, vec![stage(1e6)]),
                ChunkSpec::new(PuClass::BigCpu, vec![stage(heavy)]),
                ChunkSpec::new(PuClass::Gpu, vec![stage(heavy)]),
                ChunkSpec::new(PuClass::MediumCpu, vec![stage(2e6)]),
            ],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .with_replica_group(vec![1, 2]);
        let cfg = noiseless();
        let p = simulate_dag(&soc, &plain, &cfg, None).unwrap();
        let r = simulate_dag(&soc, &replicated, &cfg, None).unwrap();
        assert_eq!(r.completed, r.submitted);
        let (ps, rs) = (p.expect_stats(), r.expect_stats());
        assert!(
            rs.time_per_task.as_f64() < 0.75 * ps.time_per_task.as_f64(),
            "replication should scale the bottleneck: {} vs {}",
            rs.time_per_task,
            ps.time_per_task
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let soc = devices::pixel_7a();
        let spec = diamond(8e6).with_replica_group(vec![1, 2]);
        let cfg = RunConfig {
            noise_sigma: 0.05,
            seed: 42,
            record_timeline: true,
            ..noiseless()
        };
        let a = simulate_dag(&soc, &spec, &cfg, None).unwrap();
        let b = simulate_dag(&soc, &spec, &cfg, None).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = simulate_dag(&soc, &spec, &RunConfig { seed: 43, ..cfg }, None).unwrap();
        assert_ne!(
            a.expect_stats().makespan.as_f64(),
            c.expect_stats().makespan.as_f64()
        );
    }

    #[test]
    fn stage_error_tombstones_through_the_join() {
        // Drop one task inside a branch: the join must not deadlock and
        // conservation must hold.
        let soc = devices::pixel_7a();
        let spec = diamond(8e6);
        let fault = FaultSpec {
            stage_faults: vec![StageFault {
                chunk: 1,
                task: 12,
                stage: 0,
                kind: StageFaultKind::Error,
            }],
            ..FaultSpec::default()
        };
        let r = simulate_dag(&soc, &spec, &noiseless(), Some(&fault)).unwrap();
        assert_eq!(r.dropped, 1);
        assert_eq!(r.completed + r.dropped, r.submitted);
        assert!(r.is_degraded());
        assert!(r.stats.is_some());
    }

    #[test]
    fn straggler_and_timeout_fire_on_dag_chunks() {
        let soc = devices::pixel_7a();
        let spec = diamond(8e6);
        let base = simulate_dag(&soc, &spec, &noiseless(), None).unwrap();
        let fault = FaultSpec {
            stragglers: vec![Straggler {
                chunk: 2,
                task: 7,
                factor: 20.0,
            }],
            ..FaultSpec::default()
        };
        let r = simulate_dag(&soc, &spec, &noiseless(), Some(&fault)).unwrap();
        assert_eq!(r.faults_fired, 1);
        assert_eq!(r.completed, r.submitted);
        assert!(
            r.expect_stats().makespan.as_f64() > base.expect_stats().makespan.as_f64(),
            "a stalled branch must stall the join"
        );
    }

    #[test]
    fn branch_pu_loss_drains_with_conservation() {
        let soc = devices::pixel_7a();
        let spec = diamond(8e6);
        let cfg = RunConfig {
            record_timeline: true,
            ..noiseless()
        };
        let base = simulate_dag(&soc, &spec, &cfg, None).unwrap();
        let t_end = base
            .timeline
            .iter()
            .map(|e| e.end_us)
            .fold(0.0f64, f64::max);
        let fault = FaultSpec {
            losses: vec![PuLoss {
                class: PuClass::Gpu,
                at_us: t_end / 2.0,
            }],
            ..FaultSpec::default()
        };
        let r = simulate_dag(&soc, &spec, &noiseless(), Some(&fault)).unwrap();
        assert!(r.completed > 0, "tasks before the loss should complete");
        assert!(r.dropped > 0, "tasks after the loss should drop");
        assert_eq!(r.completed + r.dropped, r.submitted);
    }

    #[test]
    fn telemetry_reports_dag_source() {
        let soc = devices::pixel_7a();
        let spec = diamond(6e6);
        let cfg = RunConfig {
            telemetry: bt_telemetry::TelemetryConfig::full(),
            ..noiseless()
        };
        let r = simulate_dag(&soc, &spec, &cfg, None).unwrap();
        let tele = r.telemetry.expect("telemetry enabled");
        assert_eq!(tele.source, "des-dag");
        assert_eq!(tele.dispatchers.len(), 4);
        // One span per (chunk, stage, task).
        assert_eq!(
            tele.spans.len(),
            4 * (noiseless().tasks + noiseless().warmup) as usize
        );
    }
}

#[cfg(test)]
mod multi_tests {
    use super::*;
    use crate::fault::{PuLoss, StageFault, Straggler};
    use crate::{devices, InterferenceModel, PuClass, SocBuilder, WorkProfile};

    fn stage(flops: f64) -> WorkProfile {
        WorkProfile::new(flops, flops / 4.0)
    }

    fn cfg(seed: u64) -> RunConfig {
        RunConfig {
            tasks: 20,
            warmup: 4,
            seed,
            ..RunConfig::default()
        }
    }

    fn chain_a() -> Vec<ChunkSpec> {
        vec![
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7), stage(5e6)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(8e6)]),
        ]
    }

    fn chain_b() -> Vec<ChunkSpec> {
        vec![
            ChunkSpec::new(PuClass::MediumCpu, vec![stage(7e6)]),
            ChunkSpec::new(PuClass::LittleCpu, vec![stage(2e6)]),
        ]
    }

    #[test]
    fn empty_inputs_rejected() {
        let soc = devices::pixel_7a();
        assert!(matches!(
            simulate_multi(&soc, &[], None),
            Err(SocError::EmptySimulation)
        ));
        let t = TenantSpec::new("empty", vec![], cfg(1));
        assert!(matches!(
            simulate_multi(&soc, &[t], None),
            Err(SocError::EmptySimulation)
        ));
        let t = TenantSpec::new("zero-tasks", chain_a(), RunConfig { tasks: 0, ..cfg(1) });
        assert!(matches!(
            simulate_multi(&soc, &[t], None),
            Err(SocError::EmptySimulation)
        ));
    }

    #[test]
    fn missing_pu_rejected() {
        let soc = devices::jetson_orin_nano();
        let t = TenantSpec::new(
            "little",
            vec![ChunkSpec::new(PuClass::LittleCpu, vec![stage(1e6)])],
            cfg(1),
        );
        assert!(matches!(
            simulate_multi(&soc, &[t], None),
            Err(SocError::MissingPu(PuClass::LittleCpu))
        ));
    }

    #[test]
    fn single_tenant_is_bit_identical_to_simulate() {
        let soc = devices::pixel_7a();
        let run = RunConfig {
            record_timeline: true,
            ..cfg(42)
        };
        let solo = simulate(&soc, &chain_a(), &run, None).unwrap();
        let multi = simulate_multi(
            &soc,
            &[TenantSpec::new("solo", chain_a(), run.clone())],
            None,
        )
        .unwrap();
        assert_eq!(multi.tenants.len(), 1);
        let m = &multi.tenants[0];
        assert_eq!(m.submitted, solo.submitted);
        assert_eq!(m.completed, solo.completed);
        assert_eq!(m.dropped, solo.dropped);
        // Float bit-identity via exact debug formatting of both reports.
        assert_eq!(
            format!("{:?}", m.stats),
            format!("{:?}", solo.stats),
            "single-tenant stats must replay the single-tenant engine"
        );
        assert_eq!(m.timeline, solo.timeline);
    }

    #[test]
    fn conservation_holds_per_tenant() {
        let soc = devices::pixel_7a();
        let tenants = [
            TenantSpec::new("a", chain_a(), cfg(7)),
            TenantSpec::new(
                "b",
                chain_b(),
                RunConfig {
                    tasks: 13,
                    warmup: 2,
                    ..cfg(8)
                },
            ),
        ];
        let r = simulate_multi(&soc, &tenants, None).unwrap();
        for (t, spec) in r.tenants.iter().zip(&tenants) {
            assert_eq!(t.completed + t.dropped, t.submitted);
            assert_eq!(t.submitted, u64::from(spec.cfg.tasks + spec.cfg.warmup));
            assert_eq!(t.dropped, 0);
            assert!(t.stats.is_some());
        }
        assert!(r.makespan_us > 0.0);
        assert!(r.throughput_hz > 0.0);
    }

    #[test]
    fn co_runs_replay_bit_identically_per_seed() {
        let soc = devices::pixel_7a();
        let tenants = [
            TenantSpec::new("a", chain_a(), cfg(11)),
            TenantSpec::new("b", chain_b(), cfg(12)),
        ];
        let x = simulate_multi(&soc, &tenants, None).unwrap();
        let y = simulate_multi(&soc, &tenants, None).unwrap();
        assert_eq!(format!("{x:?}"), format!("{y:?}"));

        let mut reseeded = tenants.clone();
        reseeded[1].cfg.seed = 99;
        let z = simulate_multi(&soc, &reseeded, None).unwrap();
        assert_ne!(
            x.tenants[1].expect_stats().makespan.as_f64(),
            z.tenants[1].expect_stats().makespan.as_f64()
        );
    }

    #[test]
    fn co_running_tenant_slows_the_other_down() {
        let soc = devices::pixel_7a();
        let run = RunConfig {
            noise_sigma: 0.0,
            ..cfg(1)
        };
        let solo = simulate(&soc, &chain_a(), &run, None).unwrap();
        let co = simulate_multi(
            &soc,
            &[
                TenantSpec::new("a", chain_a(), run.clone()),
                TenantSpec::new("b", chain_b(), run.clone()),
            ],
            None,
        )
        .unwrap();
        let solo_tpt = solo.expect_stats().time_per_task.as_f64();
        let co_tpt = co.tenants[0].expect_stats().time_per_task.as_f64();
        assert!(
            co_tpt > solo_tpt,
            "co-location must cost throughput: {co_tpt} vs solo {solo_tpt}"
        );
    }

    #[test]
    fn cross_tenant_penalty_amplifies_co_run_cost() {
        // Memory-heavy stages on a low-bandwidth device so DRAM contention
        // dominates; the penalty scales only the cross-tenant demand.
        let model = InterferenceModel::calibrated([], 1.0);
        let build = |m: InterferenceModel| {
            SocBuilder::new("xt-test")
                .pu(crate::PuSpec::new(PuClass::BigCpu, "big", 4, 2.0).with_mem_bw_gbs(8.0))
                .pu(crate::PuSpec::new(PuClass::Gpu, "gpu", 8, 1.0).with_mem_bw_gbs(8.0))
                .dram_bw_gbs(10.0)
                .interference(m)
                .build()
                .unwrap()
        };
        let parity = build(model.clone());
        let hostile = build(model.with_cross_tenant_penalty(2.0));
        let mem_stage = || vec![WorkProfile::new(1e6, 4e6)];
        let tenants = [
            TenantSpec::new(
                "a",
                vec![ChunkSpec::new(PuClass::BigCpu, mem_stage())],
                RunConfig {
                    noise_sigma: 0.0,
                    ..cfg(1)
                },
            ),
            TenantSpec::new(
                "b",
                vec![ChunkSpec::new(PuClass::Gpu, mem_stage())],
                RunConfig {
                    noise_sigma: 0.0,
                    ..cfg(2)
                },
            ),
        ];
        let base = simulate_multi(&parity, &tenants, None).unwrap();
        let worse = simulate_multi(&hostile, &tenants, None).unwrap();
        assert!(
            worse.makespan_us > base.makespan_us,
            "penalty 2.0 must stretch the co-run: {} vs {}",
            worse.makespan_us,
            base.makespan_us
        );
    }

    #[test]
    fn faults_use_global_chunk_indices() {
        let soc = devices::pixel_7a();
        let tenants = [
            TenantSpec::new("a", chain_a(), cfg(3)), // global chunks 0, 1
            TenantSpec::new("b", chain_b(), cfg(4)), // global chunks 2, 3
        ];
        // Straggle tenant b's first chunk (global index 2) and error one
        // task on tenant a's second chunk (global index 1).
        let spec = FaultSpec {
            stragglers: vec![Straggler {
                chunk: 2,
                task: 5,
                factor: 10.0,
            }],
            stage_faults: vec![StageFault {
                chunk: 1,
                task: 8,
                stage: 0,
                kind: StageFaultKind::Error,
            }],
            ..FaultSpec::default()
        };
        let r = simulate_multi(&soc, &tenants, Some(&spec)).unwrap();
        assert_eq!(r.tenants[0].dropped, 1);
        assert_eq!(r.tenants[0].faults_fired, 1);
        assert_eq!(r.tenants[1].dropped, 0);
        assert_eq!(r.tenants[1].faults_fired, 1);
        for t in &r.tenants {
            assert_eq!(t.completed + t.dropped, t.submitted);
        }
    }

    // ------------------------- DAG tenants -------------------------

    /// Diamond over four chunks: 0 forks into {1, 2}, joining at 3.
    /// Branch 1 is GPU-friendly and branch 2 GPU-hostile so they prefer
    /// different silicon.
    fn diamond_chunks() -> Vec<ChunkSpec> {
        vec![
            ChunkSpec::new(PuClass::LittleCpu, vec![WorkProfile::new(1e6, 5e5)]),
            ChunkSpec::new(PuClass::Gpu, vec![WorkProfile::new(2e7, 4e6)]),
            ChunkSpec::new(
                PuClass::BigCpu,
                vec![WorkProfile::new(3e6, 2e6)
                    .with_divergence(0.9)
                    .with_irregularity(0.8)],
            ),
            ChunkSpec::new(PuClass::MediumCpu, vec![WorkProfile::new(1e6, 5e5)]),
        ]
    }

    fn diamond_edges() -> Vec<(usize, usize)> {
        vec![(0, 1), (0, 2), (1, 3), (2, 3)]
    }

    #[test]
    fn chain_edges_behave_like_no_edges() {
        let soc = devices::pixel_7a();
        let run = RunConfig {
            noise_sigma: 0.02,
            record_timeline: true,
            ..cfg(17)
        };
        let implicit =
            simulate_multi(&soc, &[TenantSpec::new("t", chain_a(), run.clone())], None).unwrap();
        let explicit = simulate_multi(
            &soc,
            &[TenantSpec::new("t", chain_a(), run.clone()).with_edges(vec![(0, 1)])],
            None,
        )
        .unwrap();
        assert_eq!(format!("{implicit:?}"), format!("{explicit:?}"));
    }

    #[test]
    fn malformed_tenant_edges_rejected() {
        let soc = devices::pixel_7a();
        for bad in [
            vec![(0usize, 9usize)],       // out of range
            vec![(1, 1)],                 // self-loop
            vec![(0, 1), (1, 2), (2, 0)], // cycle
            vec![(0, 3), (1, 3), (2, 3)], // three sources
        ] {
            let t = TenantSpec::new("bad", diamond_chunks(), cfg(1)).with_edges(bad);
            let err = simulate_multi(&soc, &[t], None).unwrap_err();
            assert!(matches!(err, SocError::BadDag { .. }), "got {err:?}");
        }
    }

    #[test]
    fn dag_tenant_completes_and_replays_deterministically() {
        let soc = devices::pixel_7a();
        let t = TenantSpec::new("diamond", diamond_chunks(), cfg(23)).with_edges(diamond_edges());
        let x = simulate_multi(&soc, std::slice::from_ref(&t), None).unwrap();
        let y = simulate_multi(&soc, std::slice::from_ref(&t), None).unwrap();
        assert_eq!(format!("{x:?}"), format!("{y:?}"));
        let r = &x.tenants[0];
        assert_eq!(r.completed, r.submitted);
        assert_eq!(r.dropped, 0);
        assert!(r.expect_stats().makespan.as_f64() > 0.0);
    }

    #[test]
    fn fork_beats_its_linearization_on_critical_path() {
        // One object in flight (buffers: 1) makes the makespan a pure
        // critical-path measure: the chain serializes both branches,
        // the fork overlaps them on different PUs.
        let soc = devices::pixel_7a();
        let run = RunConfig {
            noise_sigma: 0.0,
            buffers: 1,
            ..cfg(1)
        };
        let lin = simulate_multi(
            &soc,
            &[TenantSpec::new("lin", diamond_chunks(), run.clone())],
            None,
        )
        .unwrap();
        let dag = simulate_multi(
            &soc,
            &[TenantSpec::new("dag", diamond_chunks(), run.clone()).with_edges(diamond_edges())],
            None,
        )
        .unwrap();
        assert!(
            dag.makespan_us < lin.makespan_us,
            "fork {} must beat chain {}",
            dag.makespan_us,
            lin.makespan_us
        );
    }

    #[test]
    fn dag_branches_interfere_with_co_tenants() {
        // The forked tenant's sibling branches occupy two PUs at once, so
        // a co-runner sees more interference than next to the chain
        // version of the same tenant.
        let soc = devices::pixel_7a();
        let run = RunConfig {
            noise_sigma: 0.0,
            ..cfg(2)
        };
        let victim = || TenantSpec::new("victim", chain_b(), run.clone());
        let next_to_chain = simulate_multi(
            &soc,
            &[
                TenantSpec::new("t", diamond_chunks(), run.clone()),
                victim(),
            ],
            None,
        )
        .unwrap();
        let next_to_dag = simulate_multi(
            &soc,
            &[
                TenantSpec::new("t", diamond_chunks(), run.clone()).with_edges(diamond_edges()),
                victim(),
            ],
            None,
        )
        .unwrap();
        let chain_tpt = next_to_chain.tenants[1]
            .expect_stats()
            .time_per_task
            .as_f64();
        let dag_tpt = next_to_dag.tenants[1].expect_stats().time_per_task.as_f64();
        assert!(
            dag_tpt > chain_tpt * 0.99,
            "branch concurrency should not make the co-runner faster: {dag_tpt} vs {chain_tpt}"
        );
    }

    #[test]
    fn branch_error_tombstones_through_the_join() {
        let soc = devices::pixel_7a();
        // Error on the GPU branch (global chunk 1) for task 4: the task
        // dies there, its sibling token still crosses the join, and the
        // object recycles — conservation holds.
        let spec = FaultSpec {
            stage_faults: vec![StageFault {
                chunk: 1,
                task: 4,
                stage: 0,
                kind: StageFaultKind::Error,
            }],
            ..FaultSpec::default()
        };
        let t = TenantSpec::new("diamond", diamond_chunks(), cfg(9)).with_edges(diamond_edges());
        let r = simulate_multi(&soc, &[t], Some(&spec)).unwrap();
        let rep = &r.tenants[0];
        assert_eq!(rep.dropped, 1);
        assert_eq!(rep.completed + rep.dropped, rep.submitted);
        assert!(rep.faults_fired >= 1);
    }

    #[test]
    fn dag_branch_pu_loss_drains_with_conservation() {
        let soc = devices::pixel_7a();
        let spec = FaultSpec {
            losses: vec![PuLoss {
                class: PuClass::Gpu,
                at_us: 500.0,
            }],
            ..FaultSpec::default()
        };
        let t = TenantSpec::new("diamond", diamond_chunks(), cfg(13)).with_edges(diamond_edges());
        let r = simulate_multi(&soc, &[t], Some(&spec)).unwrap();
        let rep = &r.tenants[0];
        assert_eq!(rep.completed + rep.dropped, rep.submitted);
        assert!(rep.dropped > 0, "losing a branch PU must drop work");
    }

    #[test]
    fn pu_loss_hits_every_tenant_on_that_class() {
        let soc = devices::pixel_7a();
        let tenants = [
            TenantSpec::new(
                "a",
                vec![ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7)])],
                cfg(5),
            ),
            TenantSpec::new(
                "b",
                vec![ChunkSpec::new(PuClass::BigCpu, vec![stage(9e6)])],
                cfg(6),
            ),
        ];
        let spec = FaultSpec {
            losses: vec![PuLoss {
                class: PuClass::BigCpu,
                at_us: 0.0,
            }],
            ..FaultSpec::default()
        };
        let r = simulate_multi(&soc, &tenants, Some(&spec)).unwrap();
        for t in &r.tenants {
            assert_eq!(t.completed, 0);
            assert_eq!(t.dropped, t.submitted);
            assert!(t.stats.is_none());
        }
        assert_eq!(r.makespan_us, 0.0);
        assert_eq!(r.throughput_hz, 0.0);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::devices;
    use crate::fault::{PuLoss, StageFault, Straggler};
    use crate::{PuClass, WorkProfile};
    use bt_telemetry::TelemetryConfig;

    fn stage(flops: f64) -> WorkProfile {
        WorkProfile::new(flops, flops / 4.0)
    }

    fn chunks() -> Vec<ChunkSpec> {
        vec![
            ChunkSpec::new(PuClass::BigCpu, vec![stage(1e7), stage(5e6)]),
            ChunkSpec::new(PuClass::MediumCpu, vec![stage(7e6)]),
            ChunkSpec::new(PuClass::Gpu, vec![stage(8e6)]),
        ]
    }

    fn cfg() -> RunConfig {
        RunConfig {
            tasks: 30,
            warmup: 5,
            noise_sigma: 0.05,
            record_timeline: true,
            telemetry: TelemetryConfig::full(),
            ..RunConfig::default()
        }
    }

    fn faulty_spec(seed: u64) -> FaultSpec {
        FaultSpec {
            stragglers: vec![Straggler {
                chunk: 1,
                task: 7,
                factor: 4.0,
            }],
            stage_faults: vec![StageFault {
                chunk: 0,
                task: 9 + (seed % 3) as usize,
                stage: 1,
                kind: StageFaultKind::Error,
            }],
            losses: if seed.is_multiple_of(2) {
                vec![PuLoss {
                    class: PuClass::Gpu,
                    at_us: 4000.0,
                }]
            } else {
                Vec::new()
            },
            ..FaultSpec::default()
        }
    }

    #[test]
    fn lanes_are_bit_identical_to_scalar_runs() {
        let soc = devices::pixel_7a();
        let chunks = chunks();
        let cfg = cfg();
        let lanes: Vec<DesSeedSpec> = (0..7)
            .map(|i| {
                if i % 2 == 0 {
                    DesSeedSpec::new(40 + i)
                } else {
                    DesSeedSpec::with_faults(40 + i, faulty_spec(i))
                }
            })
            .collect();
        let batched = simulate_batch(&soc, &chunks, &cfg, &lanes).unwrap();
        for (lane, report) in lanes.iter().zip(&batched) {
            let scalar_cfg = RunConfig {
                seed: lane.seed,
                ..cfg.clone()
            };
            let scalar = simulate(&soc, &chunks, &scalar_cfg, lane.faults.as_ref()).unwrap();
            assert_eq!(format!("{report:?}"), format!("{scalar:?}"));
        }
    }

    #[test]
    fn sharded_batch_matches_single_pass() {
        let soc = devices::pixel_7a();
        let chunks = chunks();
        let cfg = cfg();
        let lanes: Vec<DesSeedSpec> = (0..9).map(DesSeedSpec::new).collect();
        let one = simulate_batch(&soc, &chunks, &cfg, &lanes).unwrap();
        let sharded = simulate_batch_parallel(&soc, &chunks, &cfg, &lanes, 4).unwrap();
        assert_eq!(one.len(), sharded.len());
        for (a, b) in one.iter().zip(&sharded) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn empty_batch_rejected() {
        let soc = devices::pixel_7a();
        assert!(matches!(
            simulate_batch(&soc, &chunks(), &cfg(), &[]),
            Err(SocError::EmptySimulation)
        ));
    }

    #[test]
    fn cache_off_batch_still_matches_scalar() {
        let soc = devices::pixel_7a();
        let chunks = chunks();
        let cfg = RunConfig {
            service_cache: false,
            ..cfg()
        };
        let lanes = [
            DesSeedSpec::new(3),
            DesSeedSpec::with_faults(4, faulty_spec(4)),
        ];
        let batched = simulate_batch(&soc, &chunks, &cfg, &lanes).unwrap();
        for (lane, report) in lanes.iter().zip(&batched) {
            let scalar_cfg = RunConfig {
                seed: lane.seed,
                ..cfg.clone()
            };
            let scalar = simulate(&soc, &chunks, &scalar_cfg, lane.faults.as_ref()).unwrap();
            assert_eq!(format!("{report:?}"), format!("{scalar:?}"));
        }
    }

    #[test]
    fn wide_pipeline_falls_back_to_hashed_memo() {
        // 9 chunks push the memo's key space past the direct-mapped table;
        // lanes must stay bit-identical through the hashed memo.
        let soc = devices::pixel_7a();
        let chunks: Vec<ChunkSpec> = (0..9)
            .map(|i| {
                ChunkSpec::new(
                    match i % 3 {
                        0 => PuClass::BigCpu,
                        1 => PuClass::MediumCpu,
                        _ => PuClass::Gpu,
                    },
                    vec![stage(1e6 + 1e5 * i as f64)],
                )
            })
            .collect();
        let cfg = RunConfig {
            tasks: 10,
            warmup: 2,
            noise_sigma: 0.05,
            ..RunConfig::default()
        };
        let lanes = [DesSeedSpec::new(1), DesSeedSpec::new(2)];
        let batched = simulate_batch(&soc, &chunks, &cfg, &lanes).unwrap();
        for (lane, report) in lanes.iter().zip(&batched) {
            let scalar_cfg = RunConfig {
                seed: lane.seed,
                ..cfg.clone()
            };
            let scalar = simulate(&soc, &chunks, &scalar_cfg, None).unwrap();
            assert_eq!(format!("{report:?}"), format!("{scalar:?}"));
        }
    }
}
