//! The placement planner: strategy × model × platform → concrete placement.

use crate::partition::{bin_loads, greedy_balance, greedy_pack, load_imbalance, refine_balance};
use crate::strategy::{PartitionScheme, PlacementStrategy};
use recsim_data::schema::ModelConfig;
use recsim_hw::units::Bytes;
use recsim_hw::Platform;
use recsim_verify::{Code, Diagnostic, Validate};
use std::error::Error;
use std::fmt;

/// Fraction of GPU HBM reserved for activations, workspace and buffers;
/// only the rest holds embedding tables.
pub const GPU_RESERVED_FRACTION: f64 = 0.15;

/// Multiplier on table bytes for optimizer state (Adagrad keeps one
/// accumulator per weight, doubling the footprint).
pub const ADAGRAD_STATE_MULTIPLIER: f64 = 2.0;

/// Where one embedding table lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableLocation {
    /// A full copy on every GPU (chosen when all tables fit one GPU's HBM):
    /// gathers are purely local and no inter-GPU exchange is needed.
    Replicated,
    /// Whole table on one GPU's HBM.
    Gpu(usize),
    /// Rows sharded evenly across the first `num_gpus` GPUs.
    RowWiseSharded {
        /// How many GPUs share the table.
        num_gpus: usize,
    },
    /// The GPU server's own system memory.
    HostMemory,
    /// A remote CPU parameter server.
    Remote(usize),
}

/// One table's placement decision plus the sizes the simulator needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableAssignment {
    /// Distinct-table index in the model config (equals the sparse-feature
    /// index unless features share tables).
    pub table: usize,
    /// Table bytes including optimizer state.
    pub bytes: u64,
    /// Bytes gathered from this table per example (lookups × row bytes).
    pub gather_bytes_per_example: u64,
    /// Bytes of this table's pooled output per example (one row).
    pub pooled_bytes_per_example: u64,
    /// Where the table lives.
    pub location: TableLocation,
}

/// A complete placement of a model's embedding tables on a platform.
///
/// # Example
///
/// ```
/// use recsim_placement::{Placement, PlacementStrategy, PartitionScheme};
/// use recsim_data::schema::ModelConfig;
/// use recsim_hw::{Platform, units::Bytes};
///
/// let config = ModelConfig::test_suite(64, 8, 100_000, &[512; 3]);
/// let platform = Platform::big_basin(Bytes::from_gib(32));
/// let placement = Placement::plan(
///     &config, &platform,
///     PlacementStrategy::GpuMemory(PartitionScheme::TableWise), 2.0,
/// )?;
/// assert!(placement.fraction_on_gpu() > 0.99);
/// # Ok::<(), recsim_placement::PlacementError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    strategy: PlacementStrategy,
    assignments: Vec<TableAssignment>,
    num_gpus: usize,
    /// Table capacity of one GPU on the planned platform; 0 = unknown
    /// (capacity checks are skipped for that location class).
    gpu_capacity: u64,
    /// Table capacity of the host's system memory; 0 = unknown.
    host_capacity: u64,
    /// Table capacity of one remote parameter server; 0 = unknown.
    remote_capacity: u64,
}

/// Why a placement could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// The strategy needs accelerators but the platform has none.
    NoGpus,
    /// A memory did not have room for the tables routed to it.
    Capacity {
        /// Which memory overflowed ("GPU 3", "host", "remote PS").
        location: String,
        /// Bytes that needed to fit.
        needed: Bytes,
        /// Bytes available.
        available: Bytes,
    },
    /// A packing primitive found an item that fits in no bin — the
    /// structured form of what [`crate::partition::greedy_pack`] reports,
    /// so callers no longer map a bare index by hand.
    Unplaceable {
        /// Index of the first item (table) that fits in no bin.
        item: usize,
        /// The item's weight.
        needed: Bytes,
        /// Capacity of each bin it was tried against.
        available: Bytes,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NoGpus => write!(f, "placement strategy requires GPUs"),
            PlacementError::Capacity {
                location,
                needed,
                available,
            } => write!(
                f,
                "embedding tables need {needed} but {location} has {available}"
            ),
            PlacementError::Unplaceable {
                item,
                needed,
                available,
            } => write!(
                f,
                "table {item} needs {needed} but no bin has room within {available}"
            ),
        }
    }
}

impl Error for PlacementError {}

impl Placement {
    /// Plans a placement.
    ///
    /// `state_multiplier` scales table bytes for optimizer state (use
    /// [`ADAGRAD_STATE_MULTIPLIER`] for Adagrad, `1.0` for plain SGD).
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::NoGpus`] when a GPU strategy is requested
    /// on a CPU-only platform, and [`PlacementError::Capacity`] when tables
    /// do not fit where the strategy routes them.
    ///
    /// # Panics
    ///
    /// Panics if `state_multiplier < 1.0`.
    pub fn plan(
        config: &ModelConfig,
        platform: &Platform,
        strategy: PlacementStrategy,
        state_multiplier: f64,
    ) -> Result<Placement, PlacementError> {
        assert!(state_multiplier >= 1.0, "state multiplier must be >= 1");
        let sized = table_demands(config, state_multiplier);
        // Saturating: an unplaceably large model fails the capacity checks
        // below instead of overflowing.
        let total_bytes = sized.iter().map(|s| s.bytes).fold(0, u64::saturating_add);

        // Capacities are recorded on the plan so `Validate` can re-check it
        // later (after deserialization, hand edits, or noise injection).
        let gpu_capacity = gpu_table_capacity(platform);
        let host_capacity = platform.host().memory().capacity().as_u64();
        let remote_capacity = recsim_hw::memory::ddr4_dual_socket().capacity().as_u64();
        let finish = |strategy, assignments, num_gpus| Placement {
            strategy,
            assignments,
            num_gpus,
            gpu_capacity,
            host_capacity,
            remote_capacity,
        };

        let build = |locations: Vec<TableLocation>| -> Vec<TableAssignment> {
            sized
                .iter()
                .zip(locations)
                .map(|(d, location)| TableAssignment {
                    table: d.table,
                    bytes: d.bytes,
                    gather_bytes_per_example: d.gather_bytes_per_example,
                    pooled_bytes_per_example: d.pooled_bytes_per_example,
                    location,
                })
                .collect()
        };

        match strategy {
            PlacementStrategy::GpuMemory(scheme) => {
                if !platform.has_gpus() {
                    return Err(PlacementError::NoGpus);
                }
                let gpus = platform.gpus().len();
                let per_gpu = gpu_table_capacity(platform);
                match scheme {
                    PartitionScheme::Replicated => {
                        if total_bytes > per_gpu {
                            return Err(PlacementError::Capacity {
                                location: "GPU memory (replicated)".into(),
                                needed: Bytes::new(total_bytes),
                                available: Bytes::new(per_gpu),
                            });
                        }
                        Ok(finish(
                            strategy,
                            build(vec![TableLocation::Replicated; sized.len()]),
                            gpus,
                        ))
                    }
                    PartitionScheme::TableWise => {
                        let weights: Vec<u64> = sized.iter().map(|s| s.bytes).collect();
                        let mut assignment = greedy_pack(&weights, gpus, per_gpu)?;
                        // Local search tightens the LPT result; it only
                        // ever lowers the maximum load, so capacity is
                        // preserved.
                        refine_balance(&weights, &mut assignment, gpus, 16);
                        Ok(finish(
                            strategy,
                            build(assignment.into_iter().map(TableLocation::Gpu).collect()),
                            gpus,
                        ))
                    }
                    PartitionScheme::RowWise => {
                        let per_gpu_load = total_bytes / gpus as u64;
                        if per_gpu_load > per_gpu {
                            return Err(PlacementError::Capacity {
                                location: "GPU memory (row-wise)".into(),
                                needed: Bytes::new(per_gpu_load),
                                available: Bytes::new(per_gpu),
                            });
                        }
                        Ok(finish(
                            strategy,
                            build(
                                (0..sized.len())
                                    .map(|_| TableLocation::RowWiseSharded { num_gpus: gpus })
                                    .collect(),
                            ),
                            gpus,
                        ))
                    }
                }
            }
            PlacementStrategy::SystemMemory => {
                let capacity = platform.host().memory().capacity().as_u64();
                if total_bytes > capacity {
                    return Err(PlacementError::Capacity {
                        location: "host system memory".into(),
                        needed: Bytes::new(total_bytes),
                        available: Bytes::new(capacity),
                    });
                }
                Ok(finish(
                    strategy,
                    build(vec![TableLocation::HostMemory; sized.len()]),
                    platform.gpus().len(),
                ))
            }
            PlacementStrategy::RemoteCpu { servers } => {
                let servers = servers.max(1) as usize;
                // Remote sparse parameter servers are dual-socket CPU boxes.
                let per_server = recsim_hw::memory::ddr4_dual_socket().capacity().as_u64();
                // Balance by gather traffic (the imbalance the paper warns
                // about), then verify capacity per server.
                let traffic: Vec<u64> = sized
                    .iter()
                    .map(|s| s.gather_bytes_per_example.max(1))
                    .collect();
                let mut assignment = greedy_balance(&traffic, servers);
                refine_balance(&traffic, &mut assignment, servers, 16);
                let byte_weights: Vec<u64> = sized.iter().map(|s| s.bytes).collect();
                let loads = bin_loads(&byte_weights, &assignment, servers);
                if let Some((server, &load)) =
                    loads.iter().enumerate().find(|&(_, &l)| l > per_server)
                {
                    return Err(PlacementError::Capacity {
                        location: format!("remote PS {server}"),
                        needed: Bytes::new(load),
                        available: Bytes::new(per_server),
                    });
                }
                Ok(finish(
                    strategy,
                    build(assignment.into_iter().map(TableLocation::Remote).collect()),
                    platform.gpus().len(),
                ))
            }
            PlacementStrategy::Hybrid => {
                if !platform.has_gpus() {
                    return Err(PlacementError::NoGpus);
                }
                let gpus = platform.gpus().len();
                let per_gpu = gpu_table_capacity(platform);
                // Hottest-first (gather traffic per byte) fill of the GPUs;
                // the remainder spills to host memory.
                let mut order: Vec<usize> = (0..sized.len()).collect();
                order.sort_by(|&a, &b| {
                    let da =
                        sized[a].gather_bytes_per_example as f64 / sized[a].bytes.max(1) as f64;
                    let db =
                        sized[b].gather_bytes_per_example as f64 / sized[b].bytes.max(1) as f64;
                    db.total_cmp(&da).then(a.cmp(&b))
                });
                let mut gpu_loads = vec![0u64; gpus];
                let mut locations = vec![TableLocation::HostMemory; sized.len()];
                let mut host_bytes = 0u64;
                for idx in order {
                    let bytes = sized[idx].bytes;
                    let best = gpu_loads
                        .iter()
                        .enumerate()
                        .filter(|&(_, &l)| l + bytes <= per_gpu)
                        .min_by_key(|&(i, &l)| (l, i))
                        .map(|(i, _)| i);
                    match best {
                        Some(g) => {
                            gpu_loads[g] += bytes;
                            locations[idx] = TableLocation::Gpu(g);
                        }
                        None => {
                            host_bytes += bytes;
                        }
                    }
                }
                let host_capacity = platform.host().memory().capacity().as_u64();
                if host_bytes > host_capacity {
                    return Err(PlacementError::Capacity {
                        location: "host system memory (hybrid spill)".into(),
                        needed: Bytes::new(host_bytes),
                        available: Bytes::new(host_capacity),
                    });
                }
                Ok(finish(strategy, build(locations), gpus))
            }
        }
    }

    /// Assembles a placement directly from its parts, bypassing the
    /// planner. No invariants are enforced here — that is the point: this
    /// is the entry for tests, config loaders and external tools, and
    /// [`Validate`] is how the result gets checked. Capacities of `0`
    /// disable the capacity check for that location class.
    pub fn from_parts(
        strategy: PlacementStrategy,
        assignments: Vec<TableAssignment>,
        num_gpus: usize,
        gpu_capacity: u64,
        host_capacity: u64,
        remote_capacity: u64,
    ) -> Placement {
        Placement {
            strategy,
            assignments,
            num_gpus,
            gpu_capacity,
            host_capacity,
            remote_capacity,
        }
    }

    /// The strategy that produced this placement.
    pub fn strategy(&self) -> PlacementStrategy {
        self.strategy
    }

    /// Per-table assignments, in feature order.
    pub fn assignments(&self) -> &[TableAssignment] {
        &self.assignments
    }

    /// Number of GPUs on the planned platform.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// Total table bytes (including optimizer state).
    pub fn total_bytes(&self) -> u64 {
        self.assignments.iter().map(|a| a.bytes).sum()
    }

    /// Table bytes per GPU (row-wise shards contribute evenly).
    pub fn gpu_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.num_gpus];
        for a in &self.assignments {
            match a.location {
                TableLocation::Replicated => {
                    for l in &mut loads {
                        *l += a.bytes;
                    }
                }
                TableLocation::Gpu(g) => loads[g] += a.bytes,
                TableLocation::RowWiseSharded { num_gpus } => {
                    let share = a.bytes / num_gpus as u64;
                    for l in loads.iter_mut().take(num_gpus) {
                        *l += share;
                    }
                }
                _ => {}
            }
        }
        loads
    }

    /// Table bytes in host memory.
    pub fn host_bytes(&self) -> u64 {
        self.assignments
            .iter()
            .filter(|a| a.location == TableLocation::HostMemory)
            .map(|a| a.bytes)
            .sum()
    }

    /// Table bytes per remote parameter server.
    pub fn remote_loads(&self) -> Vec<u64> {
        let servers = self
            .assignments
            .iter()
            .filter_map(|a| match a.location {
                TableLocation::Remote(s) => Some(s + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let mut loads = vec![0u64; servers];
        for a in &self.assignments {
            if let TableLocation::Remote(s) = a.location {
                loads[s] += a.bytes;
            }
        }
        loads
    }

    /// Fraction of gather traffic served from GPU HBM.
    pub fn fraction_on_gpu(&self) -> f64 {
        let total: u64 = self
            .assignments
            .iter()
            .map(|a| a.gather_bytes_per_example)
            .sum();
        if total == 0 {
            return 0.0;
        }
        let on_gpu: u64 = self
            .assignments
            .iter()
            .filter(|a| {
                matches!(
                    a.location,
                    TableLocation::Replicated
                        | TableLocation::Gpu(_)
                        | TableLocation::RowWiseSharded { .. }
                )
            })
            .map(|a| a.gather_bytes_per_example)
            .sum();
        on_gpu as f64 / total as f64
    }

    /// Gather bytes per example served from each location class:
    /// `(gpu, host, remote)`.
    pub fn gather_split(&self) -> (u64, u64, u64) {
        let mut gpu = 0u64;
        let mut host = 0u64;
        let mut remote = 0u64;
        for a in &self.assignments {
            match a.location {
                TableLocation::Replicated
                | TableLocation::Gpu(_)
                | TableLocation::RowWiseSharded { .. } => gpu += a.gather_bytes_per_example,
                TableLocation::HostMemory => host += a.gather_bytes_per_example,
                TableLocation::Remote(_) => remote += a.gather_bytes_per_example,
            }
        }
        (gpu, host, remote)
    }

    /// Pooled-output bytes per example served from each location class:
    /// `(gpu, host, remote)` — what must cross links to reach the trainer.
    pub fn pooled_split(&self) -> (u64, u64, u64) {
        let mut gpu = 0u64;
        let mut host = 0u64;
        let mut remote = 0u64;
        for a in &self.assignments {
            match a.location {
                TableLocation::Replicated
                | TableLocation::Gpu(_)
                | TableLocation::RowWiseSharded { .. } => gpu += a.pooled_bytes_per_example,
                TableLocation::HostMemory => host += a.pooled_bytes_per_example,
                TableLocation::Remote(_) => remote += a.pooled_bytes_per_example,
            }
        }
        (gpu, host, remote)
    }

    /// GPU load imbalance (`max/mean`), `1.0` when nothing is on GPUs.
    pub fn gpu_imbalance(&self) -> f64 {
        load_imbalance(&self.gpu_loads())
    }

    /// Number of GPUs that actually hold table bytes.
    pub fn gpus_used(&self) -> usize {
        self.gpu_loads().iter().filter(|&&l| l > 0).count()
    }

    /// A human-readable table of where every table lives and how much it
    /// weighs — the textual version of the paper's Figure 8.
    pub fn describe(&self) -> String {
        let mut out = format!("placement: {}\n", self.strategy);
        for a in &self.assignments {
            let loc = match a.location {
                TableLocation::Replicated => "replicated on every GPU".to_string(),
                TableLocation::Gpu(g) => format!("GPU {g}"),
                TableLocation::RowWiseSharded { num_gpus } => {
                    format!("row-wise across {num_gpus} GPUs")
                }
                TableLocation::HostMemory => "host system memory".to_string(),
                TableLocation::Remote(s) => format!("remote PS {s}"),
            };
            out.push_str(&format!(
                "  table {:>3}: {:>10}  ({} gathered/example) -> {loc}\n",
                a.table,
                Bytes::new(a.bytes).to_string(),
                Bytes::new(a.gather_bytes_per_example),
            ));
        }
        let loads = self.gpu_loads();
        if loads.iter().any(|&l| l > 0) {
            out.push_str(&format!(
                "  GPU loads: [{}], imbalance {:.2}\n",
                loads
                    .iter()
                    .map(|&l| Bytes::new(l).to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                self.gpu_imbalance()
            ));
        }
        if self.host_bytes() > 0 {
            out.push_str(&format!(
                "  host memory: {}\n",
                Bytes::new(self.host_bytes())
            ));
        }
        let remote = self.remote_loads();
        if !remote.is_empty() {
            out.push_str(&format!(
                "  remote PS loads: [{}]\n",
                remote
                    .iter()
                    .map(|&l| Bytes::new(l).to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        out
    }
}

/// RV021/RV022/RV023: a placement must reference only devices that exist,
/// must not overfill any memory whose capacity it knows, and must have a
/// sane shape (one assignment per table, non-degenerate sharding).
impl Validate for Placement {
    fn validate(&self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        if self.assignments.is_empty() {
            diags.push(Diagnostic::warning(
                Code::InvalidPlacement,
                "Placement.assignments",
                "placement assigns no tables",
            ));
        }
        // RV022 first: dangling device references make the load accounting
        // below meaningless, so gather them and skip the offenders.
        let mut gpu_loads = vec![0u64; self.num_gpus];
        let mut host_load = 0u64;
        let mut remote_loads: Vec<u64> = Vec::new();
        let mut seen_tables = std::collections::BTreeMap::new();
        for (i, a) in self.assignments.iter().enumerate() {
            let at = format!("Placement.assignments[{i}]");
            if let Some(&prev) = seen_tables.get(&a.table) {
                diags.push(Diagnostic::error(
                    Code::InvalidPlacement,
                    at.clone(),
                    format!(
                        "table {} is assigned twice (also at assignments[{prev}])",
                        a.table
                    ),
                ));
            } else {
                seen_tables.insert(a.table, i);
            }
            match a.location {
                TableLocation::Replicated => {
                    if self.num_gpus == 0 {
                        diags.push(Diagnostic::error(
                            Code::DanglingResource,
                            at,
                            "table replicated across GPUs on a plan with zero GPUs",
                        ));
                    } else {
                        for l in &mut gpu_loads {
                            *l += a.bytes;
                        }
                    }
                }
                TableLocation::Gpu(g) => {
                    if g >= self.num_gpus {
                        diags.push(Diagnostic::error(
                            Code::DanglingResource,
                            at,
                            format!(
                                "table on GPU {g} but the plan has only {} GPU(s)",
                                self.num_gpus
                            ),
                        ));
                    } else {
                        gpu_loads[g] += a.bytes;
                    }
                }
                TableLocation::RowWiseSharded { num_gpus } => {
                    if num_gpus == 0 || num_gpus > self.num_gpus {
                        diags.push(Diagnostic::error(
                            Code::DanglingResource,
                            at,
                            format!(
                                "table sharded across {num_gpus} GPU(s) on a plan with {}",
                                self.num_gpus
                            ),
                        ));
                    } else {
                        let share = a.bytes / num_gpus as u64;
                        for l in gpu_loads.iter_mut().take(num_gpus) {
                            *l += share;
                        }
                    }
                }
                TableLocation::HostMemory => host_load += a.bytes,
                TableLocation::Remote(s) => {
                    if remote_loads.len() <= s {
                        remote_loads.resize(s + 1, 0);
                    }
                    remote_loads[s] += a.bytes;
                }
            }
        }
        // RV021: capacity, where the plan knows it (0 = unknown, skipped).
        if self.gpu_capacity > 0 {
            for (g, &load) in gpu_loads.iter().enumerate() {
                if load > self.gpu_capacity {
                    diags.push(Diagnostic::error(
                        Code::PlacementOverCapacity,
                        format!("Placement GPU {g}"),
                        format!(
                            "{} of tables routed to a GPU with {} of table capacity",
                            Bytes::new(load),
                            Bytes::new(self.gpu_capacity)
                        ),
                    ));
                }
            }
        }
        if self.host_capacity > 0 && host_load > self.host_capacity {
            diags.push(Diagnostic::error(
                Code::PlacementOverCapacity,
                "Placement host memory",
                format!(
                    "{} of tables routed to a host with {}",
                    Bytes::new(host_load),
                    Bytes::new(self.host_capacity)
                ),
            ));
        }
        if self.remote_capacity > 0 {
            for (s, &load) in remote_loads.iter().enumerate() {
                if load > self.remote_capacity {
                    diags.push(Diagnostic::error(
                        Code::PlacementOverCapacity,
                        format!("Placement remote PS {s}"),
                        format!(
                            "{} of tables routed to a parameter server with {}",
                            Bytes::new(load),
                            Bytes::new(self.remote_capacity)
                        ),
                    ));
                }
            }
        }
        diags
    }
}

/// One distinct table's memory footprint and per-example traffic — the
/// sizing [`Placement::plan`] works from, exposed so external planners
/// (e.g. `recsim-shard`) derive demands identically instead of duplicating
/// the formula.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableDemand {
    /// Distinct-table index in the model config.
    pub table: usize,
    /// Table bytes including optimizer state.
    pub bytes: u64,
    /// Bytes gathered from this table per example (lookups × row bytes),
    /// summed over every feature the table backs.
    pub gather_bytes_per_example: u64,
    /// Bytes of this table's pooled output per example (one row per
    /// backing feature).
    pub pooled_bytes_per_example: u64,
}

impl TableDemand {
    /// Converts a demand into an assignment at `location`.
    pub fn assigned(&self, location: TableLocation) -> TableAssignment {
        TableAssignment {
            table: self.table,
            bytes: self.bytes,
            gather_bytes_per_example: self.gather_bytes_per_example,
            pooled_bytes_per_example: self.pooled_bytes_per_example,
            location,
        }
    }
}

/// Per-distinct-table demands for a model: shared tables occupy memory
/// once but aggregate the gather traffic (and pooled outputs) of every
/// feature they back. `state_multiplier` scales table bytes for optimizer
/// state, exactly as in [`Placement::plan`].
///
/// # Panics
///
/// Panics if `state_multiplier < 1.0`.
pub fn table_demands(config: &ModelConfig, state_multiplier: f64) -> Vec<TableDemand> {
    assert!(state_multiplier >= 1.0, "state multiplier must be >= 1");
    (0..config.num_tables())
        .map(|t| {
            let bytes = (config.table_hash_size(t) as f64
                * config.row_bytes() as f64
                * state_multiplier) as u64;
            let features = config.table_features(t);
            let gather = features
                .iter()
                .map(|&f| {
                    (config.sparse_features()[f].effective_lookups(config.truncation())
                        * config.row_bytes() as f64) as u64
                })
                .sum();
            let pooled = features.len() as u64 * config.row_bytes();
            TableDemand {
                table: t,
                bytes,
                gather_bytes_per_example: gather,
                pooled_bytes_per_example: pooled,
            }
        })
        .collect()
}

/// HBM bytes per GPU available for tables after the workspace reservation.
pub fn gpu_table_capacity(platform: &Platform) -> u64 {
    platform.gpus().first().map_or(0, |g| {
        (g.memory().capacity().as_u64() as f64 * (1.0 - GPU_RESERVED_FRACTION)) as u64
    })
}

/// The minimum number of GPUs whose pooled HBM can hold the model's tables
/// (how the paper's Figure 12 explains hash-size scaling: "as the hash size
/// increase more GPUs within the single server need to be used").
///
/// Returns `None` when even all GPUs together cannot hold the tables.
pub fn min_gpus_needed(
    config: &ModelConfig,
    platform: &Platform,
    state_multiplier: f64,
) -> Option<usize> {
    let per_gpu = gpu_table_capacity(platform);
    if per_gpu == 0 {
        return None;
    }
    let total = (config.total_embedding_bytes() as f64 * state_multiplier) as u64;
    let needed = total.div_ceil(per_gpu).max(1) as usize;
    if needed <= platform.gpus().len() {
        Some(needed)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recsim_data::production::{production_model, ProductionModelId};

    fn test_config(hash: u64) -> ModelConfig {
        ModelConfig::test_suite(64, 8, hash, &[512, 512, 512])
    }

    fn big_basin() -> Platform {
        Platform::big_basin(Bytes::from_gib(32))
    }

    #[test]
    fn small_model_fits_on_gpu_table_wise() {
        let p = Placement::plan(
            &test_config(100_000),
            &big_basin(),
            PlacementStrategy::GpuMemory(PartitionScheme::TableWise),
            ADAGRAD_STATE_MULTIPLIER,
        )
        .expect("fits");
        assert_eq!(p.fraction_on_gpu(), 1.0);
        assert_eq!(p.host_bytes(), 0);
        let per_gpu = gpu_table_capacity(&big_basin());
        assert!(p.gpu_loads().iter().all(|&l| l <= per_gpu));
    }

    #[test]
    fn m3_does_not_fit_on_big_basin_gpus() {
        // The paper's central M3 finding: hundreds of GB exceed 8x32 GB HBM.
        let m3 = production_model(ProductionModelId::M3);
        let err = Placement::plan(
            &m3,
            &big_basin(),
            PlacementStrategy::GpuMemory(PartitionScheme::RowWise),
            ADAGRAD_STATE_MULTIPLIER,
        )
        .expect_err("M3 must overflow");
        assert!(matches!(err, PlacementError::Capacity { .. }));
    }

    #[test]
    fn m3_fits_in_zion_system_memory() {
        let m3 = production_model(ProductionModelId::M3);
        let zion = Platform::zion_prototype();
        let p = Placement::plan(
            &m3,
            &zion,
            PlacementStrategy::SystemMemory,
            ADAGRAD_STATE_MULTIPLIER,
        )
        .expect("2 TB holds hundreds of GB");
        assert_eq!(p.host_bytes(), p.total_bytes());
    }

    #[test]
    fn grown_m3_overflows_big_basin_host_memory() {
        // M3 itself (~hundreds of GB with optimizer state) squeezes into the
        // 256 GB host, but the paper notes model sizes "continue to grow
        // into multiple TBs" — a 4x-hash M3 overflows the Big Basin host.
        let m3 = production_model(ProductionModelId::M3).with_hash_scale(4);
        let err = Placement::plan(
            &m3,
            &big_basin(),
            PlacementStrategy::SystemMemory,
            ADAGRAD_STATE_MULTIPLIER,
        )
        .expect_err("256 GB host cannot hold 4x M3 + optimizer state");
        assert!(matches!(err, PlacementError::Capacity { .. }));
        // ... while Zion's 2 TB still holds it.
        Placement::plan(
            &m3,
            &Platform::zion_prototype(),
            PlacementStrategy::SystemMemory,
            ADAGRAD_STATE_MULTIPLIER,
        )
        .expect("Zion holds 4x M3");
    }

    #[test]
    fn remote_placement_balances_traffic() {
        let m3 = production_model(ProductionModelId::M3);
        let p = Placement::plan(
            &m3,
            &big_basin(),
            PlacementStrategy::RemoteCpu { servers: 8 },
            ADAGRAD_STATE_MULTIPLIER,
        )
        .expect("8 x 256 GB holds M3");
        let loads = p.remote_loads();
        assert_eq!(loads.len(), 8);
        assert!(loads.iter().all(|&l| l > 0), "all servers used");
        let (_, _, remote) = p.gather_split();
        assert!(remote > 0);
        assert_eq!(p.fraction_on_gpu(), 0.0);
    }

    #[test]
    fn hybrid_puts_hot_tables_on_gpu() {
        // Heterogeneous tables: hot small ones plus cold huge ones that
        // cannot fit any single 16 GiB GPU (Figure 6's "some of the most
        // accessed tables are relatively small").
        use recsim_data::schema::{Interaction, SparseFeatureSpec};
        let mut sparse = Vec::new();
        for i in 0..4 {
            sparse.push(SparseFeatureSpec::new(format!("hot_{i}"), 1_000_000, 30.0));
        }
        for i in 0..4 {
            sparse.push(SparseFeatureSpec::new(
                format!("cold_{i}"),
                100_000_000,
                2.0,
            ));
        }
        let cfg = ModelConfig::new(
            "hybrid-test",
            64,
            sparse,
            32,
            vec![512],
            vec![512],
            Interaction::DotProduct,
            32,
        );
        let p = Placement::plan(
            &cfg,
            &Platform::big_basin(Bytes::from_gib(16)),
            PlacementStrategy::Hybrid,
            ADAGRAD_STATE_MULTIPLIER,
        )
        .expect("spills to host");
        assert!(p.fraction_on_gpu() > 0.5, "hot tables land on GPU");
        assert!(p.host_bytes() > 0, "cold tables spilled to host");
        // The spilled ones are the cold giants.
        for a in p.assignments() {
            if a.location == TableLocation::HostMemory {
                assert!(a.bytes > (1u64 << 33), "only giants spill");
            }
        }
    }

    #[test]
    fn gpu_strategy_requires_gpus() {
        let err = Placement::plan(
            &test_config(1000),
            &Platform::dual_socket_cpu(),
            PlacementStrategy::GpuMemory(PartitionScheme::TableWise),
            1.0,
        )
        .expect_err("no GPUs");
        assert_eq!(err, PlacementError::NoGpus);
    }

    #[test]
    fn row_wise_spreads_evenly() {
        let p = Placement::plan(
            &test_config(1_000_000),
            &big_basin(),
            PlacementStrategy::GpuMemory(PartitionScheme::RowWise),
            1.0,
        )
        .expect("fits");
        assert!(p.gpu_imbalance() < 1.01);
        assert_eq!(p.gpus_used(), 8);
    }

    #[test]
    fn min_gpus_grows_with_hash_size() {
        let bb = big_basin();
        let small = min_gpus_needed(&test_config(100_000), &bb, 2.0).unwrap();
        let large = min_gpus_needed(&test_config(100_000_000), &bb, 2.0).unwrap();
        assert!(small <= large);
        assert!(large >= 2, "800M rows x 32 dims x 8B needs several GPUs");
        assert_eq!(
            min_gpus_needed(&test_config(100_000), &Platform::dual_socket_cpu(), 2.0),
            None
        );
    }

    #[test]
    fn describe_covers_every_table_and_location_class() {
        let p = Placement::plan(
            &test_config(100_000),
            &big_basin(),
            PlacementStrategy::GpuMemory(PartitionScheme::TableWise),
            1.0,
        )
        .expect("fits");
        let text = p.describe();
        assert!(text.contains("table-wise"));
        for t in 0..8 {
            assert!(text.contains(&format!("table   {t}")), "{text}");
        }
        assert!(text.contains("GPU loads"));
    }

    #[test]
    fn planned_placements_validate_cleanly() {
        let bb = big_basin();
        let cfg = test_config(100_000);
        for strategy in [
            PlacementStrategy::GpuMemory(PartitionScheme::TableWise),
            PlacementStrategy::GpuMemory(PartitionScheme::RowWise),
            PlacementStrategy::GpuMemory(PartitionScheme::Replicated),
            PlacementStrategy::SystemMemory,
            PlacementStrategy::RemoteCpu { servers: 4 },
            PlacementStrategy::Hybrid,
        ] {
            let p = Placement::plan(&cfg, &bb, strategy, ADAGRAD_STATE_MULTIPLIER)
                .expect("small model places everywhere");
            assert!(p.check().is_ok(), "{strategy:?} should validate");
        }
    }

    #[test]
    fn over_capacity_plan_is_rv021() {
        let a = TableAssignment {
            table: 0,
            bytes: 100,
            gather_bytes_per_example: 8,
            pooled_bytes_per_example: 8,
            location: TableLocation::Gpu(0),
        };
        let p = Placement::from_parts(
            PlacementStrategy::GpuMemory(PartitionScheme::TableWise),
            vec![a],
            2,
            64, // capacity below the 100 bytes routed to GPU 0
            0,
            0,
        );
        let err = p.check().expect_err("over capacity");
        assert!(err.has_code(Code::PlacementOverCapacity));
    }

    #[test]
    fn dangling_gpu_reference_is_rv022() {
        let a = TableAssignment {
            table: 0,
            bytes: 100,
            gather_bytes_per_example: 8,
            pooled_bytes_per_example: 8,
            location: TableLocation::Gpu(5),
        };
        let p = Placement::from_parts(
            PlacementStrategy::GpuMemory(PartitionScheme::TableWise),
            vec![a],
            2,
            1 << 30,
            0,
            0,
        );
        let err = p.check().expect_err("GPU 5 does not exist");
        assert!(err.has_code(Code::DanglingResource));
    }

    #[test]
    fn duplicate_table_assignment_is_rv023() {
        let a = TableAssignment {
            table: 3,
            bytes: 100,
            gather_bytes_per_example: 8,
            pooled_bytes_per_example: 8,
            location: TableLocation::HostMemory,
        };
        let p = Placement::from_parts(PlacementStrategy::SystemMemory, vec![a, a], 0, 0, 0, 0);
        let err = p.check().expect_err("table 3 assigned twice");
        assert!(err.has_code(Code::InvalidPlacement));
    }

    #[test]
    fn capacity_error_is_displayable() {
        let err = PlacementError::Capacity {
            location: "GPU 0".into(),
            needed: Bytes::from_gib(100),
            available: Bytes::from_gib(32),
        };
        let msg = err.to_string();
        assert!(msg.contains("GPU 0") && msg.contains("100"));
    }
}
