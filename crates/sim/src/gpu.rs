//! Single-server GPU training pipeline (Big Basin / Zion).
//!
//! Training is data-parallel across the server's GPUs: the global batch is
//! split evenly, every GPU runs the dense stack for its shard, and the
//! embedding path depends on the table placement:
//!
//! * **Replicated tables** — purely local gathers, no exchange.
//! * **Distributed GPU tables** (table- or row-wise) — each owner GPU
//!   gathers and pools *the whole batch* for its tables, then an all-to-all
//!   delivers pooled vectors to the consuming GPUs (over NVLink when the
//!   platform has it, otherwise relayed through host memory — the
//!   prototype-Zion regime the paper measures in Figure 14).
//! * **Host-memory tables** — the host CPU complex gathers and pools, then
//!   PCIe delivers per-GPU slices (host CPU becomes the bottleneck on a
//!   2-socket Big Basin, but not on 8-socket Zion).
//! * **Remote tables** — parameter servers gather, the NIC carries pooled
//!   vectors, the host stages them, PCIe delivers them.
//!
//! The backward pass mirrors every movement and adds the scatter/optimizer
//! traffic at each table's owner, plus a ring all-reduce of dense gradients.

use crate::cost::{CostKnobs, IterationCosts};
use crate::des::{ResourceId, Schedule, SimScratch, TaskGraph, TaskId};
use crate::report::SimReport;
use crate::SimError;
use recsim_data::schema::ModelConfig;
use recsim_hw::units::Bytes;
use recsim_hw::{Link, Platform, PowerModel};
use recsim_placement::{Placement, PlacementStrategy, TableAssignment, TableLocation};
use recsim_trace::{CriticalPathReport, TaskCategory, Trace};
use recsim_verify::{Code, Diagnostic, Validate};

/// Simulator for one GPU-server training setup.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct GpuTrainingSim {
    config: ModelConfig,
    platform: Platform,
    placement: Placement,
    batch: u64,
    knobs: CostKnobs,
    cache_hit_rate: f64,
    /// Host-GPU link, extracted once construction has validated that the
    /// platform actually reaches its GPUs.
    pcie: Link,
    /// Direct GPU-GPU interconnect, when the platform has one.
    nvlink: Option<Link>,
}

impl GpuTrainingSim {
    /// Plans the placement (with Adagrad state) and builds the simulator.
    ///
    /// # Errors
    ///
    /// [`SimError::Invalid`] when the model fails validation (checked
    /// before planning) or the platform does; [`SimError::Placement`] when
    /// the strategy cannot host the model's tables.
    pub fn new(
        config: &ModelConfig,
        platform: &Platform,
        strategy: PlacementStrategy,
        batch: u64,
    ) -> Result<Self, SimError> {
        // Validate the model first: planning sums its table bytes.
        let errors = crate::collect_errors(config.validate());
        if !errors.diagnostics().is_empty() {
            return Err(SimError::Invalid(errors));
        }
        let placement = Placement::plan(
            config,
            platform,
            strategy,
            recsim_placement::plan::ADAGRAD_STATE_MULTIPLIER,
        )?;
        Self::with_placement(config, platform, placement, batch)
    }

    /// Builds the simulator from an existing placement.
    ///
    /// # Errors
    ///
    /// [`SimError::Invalid`] with the collected RV0xx diagnostics when the
    /// model config, platform, or placement fails [`Validate`], when
    /// `batch == 0`, or when the platform has no (reachable) GPUs.
    pub fn with_placement(
        config: &ModelConfig,
        platform: &Platform,
        placement: Placement,
        batch: u64,
    ) -> Result<Self, SimError> {
        let mut diagnostics = config.validate();
        diagnostics.extend(platform.validate());
        diagnostics.extend(placement.validate());
        if batch == 0 {
            diagnostics.push(Diagnostic::error(
                Code::InvalidClusterConfig,
                "GpuTrainingSim.batch",
                "batch must be positive",
            ));
        }
        if !platform.has_gpus() {
            diagnostics.push(Diagnostic::error(
                Code::InvalidPlatform,
                format!("GpuTrainingSim.platform({})", platform.name()),
                "GPU training needs a platform with GPUs",
            ));
        }
        // RV020 from Platform::validate already covers the GPUs-without-a-
        // host-link case, so this only fails alongside it.
        let pcie = match platform.host_gpu_link() {
            Some(link) => *link,
            None => {
                return Err(SimError::Invalid(crate::collect_errors(diagnostics)));
            }
        };
        let errors = crate::collect_errors(diagnostics);
        if !errors.diagnostics().is_empty() {
            return Err(SimError::Invalid(errors));
        }
        Ok(Self {
            config: config.clone(),
            platform: platform.clone(),
            placement,
            batch,
            knobs: CostKnobs::default(),
            cache_hit_rate: 0.0,
            pcie,
            nvlink: platform.gpu_interconnect().copied(),
        })
    }

    /// Adds a GPU-resident hot-row cache in front of host/remote embedding
    /// tables: `hit_rate` of the off-GPU gather traffic (and its pooled
    /// output movement) is served from HBM instead. Obtain realistic hit
    /// rates from `recsim_data::trace::ReuseProfile::lru_hit_rate` — the
    /// caching opportunity the paper's Section III.A.2 points at.
    ///
    /// # Errors
    ///
    /// [`SimError::Invalid`] (RV029) if `hit_rate` is outside `[0, 1]`.
    pub fn with_host_cache_hit_rate(mut self, hit_rate: f64) -> Result<Self, SimError> {
        if !hit_rate.is_finite() || !(0.0..=1.0).contains(&hit_rate) {
            return Err(SimError::Invalid(
                Diagnostic::error(
                    Code::InvalidClusterConfig,
                    "GpuTrainingSim.cache_hit_rate",
                    format!("hit rate must be in [0, 1], got {hit_rate}"),
                )
                .into(),
            ));
        }
        self.cache_hit_rate = hit_rate;
        Ok(self)
    }

    /// Overrides the cost-model knobs (for ablations).
    ///
    /// # Errors
    ///
    /// [`SimError::Invalid`] (RV024) when a knob fails [`Validate`].
    pub fn with_knobs(mut self, knobs: CostKnobs) -> Result<Self, SimError> {
        knobs.check()?;
        self.knobs = knobs;
        Ok(self)
    }

    /// The planned placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The global batch size.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Number of back-to-back iterations used to measure steady-state
    /// pipelined throughput: production training overlaps the input
    /// pipeline, parameter-server fetches and host-side embedding work of
    /// iteration *i+1* with the GPU compute of iteration *i*; the marginal
    /// cost of one more iteration in a multi-iteration schedule captures
    /// that overlap.
    pub const PIPELINE_DEPTH: usize = 4;

    /// Simulates steady-state pipelined training and reports the marginal
    /// per-iteration time.
    pub fn run(&self) -> SimReport {
        self.run_in(&mut SimScratch::new())
    }

    /// [`GpuTrainingSim::run`] borrowing a caller-owned [`SimScratch`], so a
    /// sweep amortizes the engine's working buffers over its whole grid.
    pub fn run_in(&self, scratch: &mut SimScratch) -> SimReport {
        let single = self.schedule_of(1, scratch);
        let pipelined = self.schedule_of(Self::PIPELINE_DEPTH, scratch);
        let steady = pipelined.makespan().saturating_sub(single.makespan())
            / (Self::PIPELINE_DEPTH - 1) as f64;
        // A fully-overlapped graph could in principle report ~zero marginal
        // time; never report faster than the critical path allows.
        let steady = steady.max(single.makespan() / Self::PIPELINE_DEPTH as f64);
        self.report(steady, &pipelined)
    }

    /// [`GpuTrainingSim::run_in`] with every task duration rewritten through
    /// `perturbation` — how `recsim-fault` measures degraded throughput
    /// (stragglers, derated links) without rebuilding the simulator. With
    /// [`crate::des::NoPerturbation`] this is exactly
    /// [`GpuTrainingSim::run_in`].
    pub fn run_perturbed_in(
        &self,
        scratch: &mut SimScratch,
        perturbation: &dyn crate::des::Perturbation,
    ) -> SimReport {
        let single = self.schedule_perturbed_of(1, scratch, perturbation);
        let pipelined = self.schedule_perturbed_of(Self::PIPELINE_DEPTH, scratch, perturbation);
        let steady = pipelined.makespan().saturating_sub(single.makespan())
            / (Self::PIPELINE_DEPTH - 1) as f64;
        let steady = steady.max(single.makespan() / Self::PIPELINE_DEPTH as f64);
        self.report(steady, &pipelined)
    }

    /// Simulates exactly one un-pipelined iteration (latency view).
    pub fn run_single_iteration(&self) -> SimReport {
        let schedule = self.schedule_of(1, &mut SimScratch::new());
        self.report(schedule.makespan(), &schedule)
    }

    /// Execution trace of one un-pipelined iteration: spans per resource
    /// plus occupancy counters. Export with [`recsim_trace::chrome_trace`]
    /// (Perfetto / `chrome://tracing`), [`recsim_trace::text_timeline`], or
    /// the summary tables.
    pub fn trace(&self) -> Trace {
        self.schedule_of(1, &mut SimScratch::new()).to_trace()
    }

    /// Critical-path attribution of one un-pipelined iteration, with the
    /// `top_k` highest-slack off-path tasks.
    pub fn critical_path(&self, top_k: usize) -> CriticalPathReport {
        self.schedule_of(1, &mut SimScratch::new())
            .critical_path(top_k)
    }

    /// Builds and simulates the iteration graph. Construction validated
    /// every input and `build_graph` only wires ids it just created, so the
    /// graph always passes its own validation; if that invariant ever broke
    /// an empty schedule (zero makespan) is returned rather than a panic.
    fn schedule_of(&self, iterations: usize, scratch: &mut SimScratch) -> Schedule {
        match self.build_graph(iterations).simulate_in(scratch) {
            Ok(schedule) => schedule,
            Err(_) => TaskGraph::new().execute(),
        }
    }

    /// [`GpuTrainingSim::schedule_of`] through a [`crate::des::Perturbation`].
    fn schedule_perturbed_of(
        &self,
        iterations: usize,
        scratch: &mut SimScratch,
        perturbation: &dyn crate::des::Perturbation,
    ) -> Schedule {
        match self
            .build_graph(iterations)
            .simulate_perturbed_in(scratch, perturbation)
        {
            Ok(schedule) => schedule,
            Err(_) => TaskGraph::new().execute(),
        }
    }

    fn build_graph(&self, iterations: usize) -> TaskGraph {
        let g_count = self.platform.gpus().len();
        let big_b = self.batch;
        let small_b = (big_b / g_count as u64).max(1);
        let costs = IterationCosts::new(&self.config, self.knobs);
        let mut graph = TaskGraph::new();

        // ---- Resources -------------------------------------------------
        let gpu_res: Vec<ResourceId> = (0..g_count)
            .map(|g| graph.add_resource(format!("gpu{g}"), 1))
            .collect();
        let host_res = graph.add_resource("host_cpu", 1);
        let pcie_res: Vec<ResourceId> = (0..g_count)
            .map(|g| graph.add_resource(format!("pcie{g}"), 1))
            .collect();
        let nvlink_res = self
            .platform
            .gpu_interconnect()
            .map(|_| graph.add_resource("nvlink", g_count));
        let nic_res = graph.add_resource("nic", 1);
        let remote_servers = self.placement.remote_loads().len();
        let ps_res: Vec<ResourceId> = (0..remote_servers)
            .map(|k| graph.add_resource(format!("sparse_ps{k}"), 1))
            .collect();

        let host_dev = *self.platform.host();
        let gpu_devs: Vec<_> = self.platform.gpus().to_vec();
        let pcie = self.pcie;
        let nic = *self.platform.network();

        // ---- Placement-derived traffic ---------------------------------
        let (mut gather_gpu, mut gather_host, mut gather_remote) = self.placement.gather_split();
        let (mut pooled_gpu, mut pooled_host, mut pooled_remote) = self.placement.pooled_split();
        if self.cache_hit_rate > 0.0 {
            // A hot-row cache on the GPUs serves `hit_rate` of the off-GPU
            // lookups locally (replicated-cache semantics: local gathers,
            // no exchange for hits).
            let hit = self.cache_hit_rate;
            let moved_gather = ((gather_host + gather_remote) as f64 * hit) as u64;
            let moved_pooled = ((pooled_host + pooled_remote) as f64 * hit) as u64;
            gather_host = (gather_host as f64 * (1.0 - hit)) as u64;
            gather_remote = (gather_remote as f64 * (1.0 - hit)) as u64;
            pooled_host = (pooled_host as f64 * (1.0 - hit)) as u64;
            pooled_remote = (pooled_remote as f64 * (1.0 - hit)) as u64;
            gather_gpu += moved_gather;
            pooled_gpu += moved_pooled;
        }
        let replicated = self
            .placement
            .assignments()
            .iter()
            .all(|a| a.location == TableLocation::Replicated)
            || self.placement.assignments().iter().all(|a| {
                !matches!(
                    a.location,
                    TableLocation::Gpu(_) | TableLocation::RowWiseSharded { .. }
                )
            });
        let avg = |class: &dyn Fn(&TableAssignment) -> bool| -> u64 {
            let sel: Vec<&TableAssignment> = self
                .placement
                .assignments()
                .iter()
                .filter(|a| class(a))
                .collect();
            if sel.is_empty() {
                1
            } else {
                sel.iter().map(|a| a.bytes).sum::<u64>() / sel.len() as u64
            }
        };
        let avg_gpu_table = avg(&|a: &TableAssignment| {
            matches!(
                a.location,
                TableLocation::Replicated
                    | TableLocation::Gpu(_)
                    | TableLocation::RowWiseSharded { .. }
            )
        });
        let avg_host_table = avg(&|a: &TableAssignment| a.location == TableLocation::HostMemory);
        let avg_remote_table =
            avg(&|a: &TableAssignment| matches!(a.location, TableLocation::Remote(_)));
        let count = |class: &dyn Fn(&TableAssignment) -> bool| -> u64 {
            self.placement
                .assignments()
                .iter()
                .filter(|a| class(a))
                .count() as u64
        };
        let gpu_tables = count(&|a: &TableAssignment| {
            matches!(
                a.location,
                TableLocation::Replicated
                    | TableLocation::Gpu(_)
                    | TableLocation::RowWiseSharded { .. }
            )
        });
        let host_tables = count(&|a: &TableAssignment| a.location == TableLocation::HostMemory);
        let remote_table_count =
            count(&|a: &TableAssignment| matches!(a.location, TableLocation::Remote(_)));

        // Per-owner gather shares for distributed GPU tables.
        let mut owner_gather = vec![0u64; g_count];
        for a in self.placement.assignments() {
            match a.location {
                TableLocation::Gpu(g) => owner_gather[g] += a.gather_bytes_per_example,
                TableLocation::RowWiseSharded { num_gpus } => {
                    let share = a.gather_bytes_per_example / num_gpus as u64;
                    for og in owner_gather.iter_mut().take(num_gpus) {
                        *og += share;
                    }
                }
                _ => {}
            }
        }

        // ---- Iterations ---------------------------------------------------
        // Tasks of different iterations share resources but have no data
        // dependencies: the DES yields the steady-state overlap.
        let example_bytes = self.config.example_bytes();
        for _iteration in 0..iterations {
            let t_read = graph.add_task_in(
                TaskCategory::ReaderStall,
                "read_batch",
                nic.transfer_time(Bytes::new(big_b * example_bytes), 1),
                Some(nic_res),
                &[],
            );
            let t_stage_in = graph.add_task_in(
                TaskCategory::HostStaging,
                "stage_input",
                costs.host_staging(big_b * example_bytes, &host_dev),
                Some(host_res),
                &[t_read],
            );
            let t_h2d: Vec<TaskId> = (0..g_count)
                .map(|g| {
                    graph.add_task_in(
                        TaskCategory::PcieTransfer,
                        format!("h2d_input{g}"),
                        pcie.transfer_time(Bytes::new(small_b * example_bytes), 1),
                        Some(pcie_res[g]),
                        &[t_stage_in],
                    )
                })
                .collect();

            // ---- Dense forward ----------------------------------------------
            let t_bottom: Vec<TaskId> = (0..g_count)
                .map(|g| {
                    graph.add_task_in(
                        TaskCategory::MlpCompute,
                        format!("bottom_mlp{g}"),
                        costs.dense_time_on(&costs.bottom_forward(small_b), &gpu_devs[g]),
                        Some(gpu_res[g]),
                        &[t_h2d[g]],
                    )
                })
                .collect();

            // ---- Embedding forward ------------------------------------------
            // Collect, per consumer GPU, the tasks that must finish before its
            // pooled embeddings are resident.
            let mut emb_ready: Vec<Vec<TaskId>> = vec![Vec::new(); g_count];

            if gather_gpu > 0 {
                if replicated {
                    for g in 0..g_count {
                        let t = graph.add_task_in(
                            TaskCategory::EmbeddingLookup,
                            format!("local_gather{g}"),
                            costs
                                .embedding_gather(small_b * gather_gpu, avg_gpu_table, gpu_tables)
                                .time_on(&gpu_devs[g]),
                            Some(gpu_res[g]),
                            &[t_h2d[g]],
                        );
                        emb_ready[g].push(t);
                    }
                } else {
                    // Owners gather the full batch for their tables.
                    let gathers: Vec<TaskId> = (0..g_count)
                        .map(|o| {
                            graph.add_task_in(
                                TaskCategory::EmbeddingLookup,
                                format!("owner_gather{o}"),
                                costs
                                    .embedding_gather(
                                        big_b * owner_gather[o],
                                        avg_gpu_table,
                                        gpu_tables.div_ceil(g_count as u64),
                                    )
                                    .time_on(&gpu_devs[o]),
                                Some(gpu_res[o]),
                                &[t_h2d[o]],
                            )
                        })
                        .collect();
                    // All-to-all of pooled vectors: one collective per
                    // distributed table.
                    let distributed_tables = self
                        .placement
                        .assignments()
                        .iter()
                        .filter(|a| {
                            matches!(
                                a.location,
                                TableLocation::Gpu(_) | TableLocation::RowWiseSharded { .. }
                            )
                        })
                        .count() as u64;
                    let a2a = self.add_exchange(
                        &mut graph,
                        "a2a_fwd",
                        &gathers,
                        big_b.saturating_sub(small_b) * pooled_gpu / g_count as u64,
                        small_b * pooled_gpu,
                        distributed_tables,
                        nvlink_res,
                        &pcie_res,
                        host_res,
                        &costs,
                    );
                    for ready in &mut emb_ready {
                        ready.push(a2a);
                    }
                }
            }

            if gather_host > 0 {
                let t_hgather = graph.add_task_in(
                    TaskCategory::EmbeddingLookup,
                    "host_gather",
                    costs
                        .embedding_gather(big_b * gather_host, avg_host_table, host_tables)
                        .time_on(&host_dev),
                    Some(host_res),
                    &[t_stage_in],
                );
                for g in 0..g_count {
                    let t = graph.add_task_in(
                        TaskCategory::PcieTransfer,
                        format!("h2d_pooled{g}"),
                        pcie.transfer_time(Bytes::new(small_b * pooled_host), 1),
                        Some(pcie_res[g]),
                        &[t_hgather],
                    );
                    emb_ready[g].push(t);
                }
            }

            if gather_remote > 0 && remote_servers > 0 {
                // Per-server gather shares.
                let mut server_gather = vec![0u64; remote_servers];
                for a in self.placement.assignments() {
                    if let TableLocation::Remote(s) = a.location {
                        server_gather[s] += a.gather_bytes_per_example;
                    }
                }
                let ps_dev = recsim_hw::device::skylake_dual_socket();
                let ps_tasks: Vec<TaskId> = (0..remote_servers)
                    .map(|k| {
                        graph.add_task_in(
                            TaskCategory::EmbeddingLookup,
                            format!("ps_gather{k}"),
                            costs
                                .embedding_gather(
                                    big_b * server_gather[k],
                                    avg_remote_table,
                                    remote_table_count.div_ceil(remote_servers as u64),
                                )
                                .time_on(&ps_dev)
                                + self.knobs.rpc_overhead,
                            Some(ps_res[k]),
                            &[t_read],
                        )
                    })
                    .collect();
                let remote_tables = self
                    .placement
                    .assignments()
                    .iter()
                    .filter(|a| matches!(a.location, TableLocation::Remote(_)))
                    .count() as u64;
                let t_net = graph.add_task_in(
                    TaskCategory::NicTransfer,
                    "net_pooled",
                    nic.transfer_time(
                        Bytes::new(big_b * pooled_remote),
                        remote_tables * remote_servers as u64,
                    ),
                    Some(nic_res),
                    &ps_tasks,
                );
                // The GPU server's CPUs unpack every response and repack
                // per-GPU buffers — one RPC's worth of software per table per
                // server plus the staging copy ("this setup also creates
                // additional work for the CPUs on the GPU server").
                let t_rstage = graph.add_task_in(
                    TaskCategory::HostStaging,
                    "stage_pooled",
                    costs.host_staging(big_b * pooled_remote, &host_dev)
                        + self.knobs.rpc_overhead * (remote_tables * remote_servers as u64) as f64,
                    Some(host_res),
                    &[t_net],
                );
                for g in 0..g_count {
                    let t = graph.add_task_in(
                        TaskCategory::PcieTransfer,
                        format!("h2d_remote_pooled{g}"),
                        pcie.transfer_time(Bytes::new(small_b * pooled_remote), 1),
                        Some(pcie_res[g]),
                        &[t_rstage],
                    );
                    emb_ready[g].push(t);
                }
            }

            // ---- Interaction, top MLP, dense backward -----------------------
            let mut t_bwd = Vec::with_capacity(g_count);
            for g in 0..g_count {
                let mut deps = vec![t_bottom[g]];
                deps.extend_from_slice(&emb_ready[g]);
                let t_interact = graph.add_task_in(
                    TaskCategory::MlpCompute,
                    format!("interaction{g}"),
                    costs.dense_time_on(&costs.interaction_forward(small_b), &gpu_devs[g]),
                    Some(gpu_res[g]),
                    &deps,
                );
                let t_top = graph.add_task_in(
                    TaskCategory::MlpCompute,
                    format!("top_mlp{g}"),
                    costs.dense_time_on(&costs.top_forward(small_b), &gpu_devs[g]),
                    Some(gpu_res[g]),
                    &[t_interact],
                );
                t_bwd.push(graph.add_task_in(
                    TaskCategory::MlpCompute,
                    format!("dense_backward{g}"),
                    costs.dense_time_on(&costs.dense_backward(small_b), &gpu_devs[g]),
                    Some(gpu_res[g]),
                    &[t_top],
                ));
            }

            // ---- Embedding backward ------------------------------------------
            let mut tail_tasks: Vec<TaskId> = Vec::new();

            if gather_gpu > 0 {
                if replicated {
                    // Replicas must agree: exchange the pooled-embedding
                    // gradients (one collective per table, like the dense
                    // all-reduce), then every GPU applies the FULL batch's
                    // updates to its own copy.
                    let grad_exchange = self.add_exchange(
                        &mut graph,
                        "replica_grad_allreduce",
                        &t_bwd,
                        big_b.saturating_sub(small_b) * pooled_gpu / g_count as u64,
                        small_b * pooled_gpu,
                        gpu_tables,
                        nvlink_res,
                        &pcie_res,
                        host_res,
                        &costs,
                    );
                    for g in 0..g_count {
                        tail_tasks.push(
                            graph.add_task_in(
                                TaskCategory::EmbeddingUpdate,
                                format!("replica_scatter{g}"),
                                costs
                                    .embedding_scatter(
                                        big_b * gather_gpu,
                                        avg_gpu_table,
                                        gpu_tables,
                                        recsim_hw::DeviceKind::Gpu,
                                    )
                                    .time_on(&gpu_devs[g]),
                                Some(gpu_res[g]),
                                &[grad_exchange],
                            ),
                        );
                    }
                } else {
                    let distributed_tables = self
                        .placement
                        .assignments()
                        .iter()
                        .filter(|a| {
                            matches!(
                                a.location,
                                TableLocation::Gpu(_) | TableLocation::RowWiseSharded { .. }
                            )
                        })
                        .count() as u64;
                    let a2a_bwd = self.add_exchange(
                        &mut graph,
                        "a2a_bwd",
                        &t_bwd,
                        big_b.saturating_sub(small_b) * pooled_gpu / g_count as u64,
                        small_b * pooled_gpu,
                        distributed_tables,
                        nvlink_res,
                        &pcie_res,
                        host_res,
                        &costs,
                    );
                    for o in 0..g_count {
                        tail_tasks.push(
                            graph.add_task_in(
                                TaskCategory::EmbeddingUpdate,
                                format!("owner_scatter{o}"),
                                costs
                                    .embedding_scatter(
                                        big_b * owner_gather[o],
                                        avg_gpu_table,
                                        gpu_tables.div_ceil(g_count as u64),
                                        recsim_hw::DeviceKind::Gpu,
                                    )
                                    .time_on(&gpu_devs[o]),
                                Some(gpu_res[o]),
                                &[a2a_bwd],
                            ),
                        );
                    }
                }
            }

            if gather_host > 0 {
                let ups: Vec<TaskId> = (0..g_count)
                    .map(|g| {
                        graph.add_task_in(
                            TaskCategory::PcieTransfer,
                            format!("d2h_emb_grad{g}"),
                            pcie.transfer_time(Bytes::new(small_b * pooled_host), 1),
                            Some(pcie_res[g]),
                            &[t_bwd[g]],
                        )
                    })
                    .collect();
                tail_tasks.push(
                    graph.add_task_in(
                        TaskCategory::EmbeddingUpdate,
                        "host_scatter",
                        costs
                            .embedding_scatter(
                                big_b * gather_host,
                                avg_host_table,
                                host_tables,
                                recsim_hw::DeviceKind::Cpu,
                            )
                            .time_on(&host_dev),
                        Some(host_res),
                        &ups,
                    ),
                );
            }

            if gather_remote > 0 && remote_servers > 0 {
                let mut server_gather = vec![0u64; remote_servers];
                for a in self.placement.assignments() {
                    if let TableLocation::Remote(s) = a.location {
                        server_gather[s] += a.gather_bytes_per_example;
                    }
                }
                let remote_tables = self
                    .placement
                    .assignments()
                    .iter()
                    .filter(|a| matches!(a.location, TableLocation::Remote(_)))
                    .count() as u64;
                // Repack gradient requests on the host, then push them out.
                let t_bstage = graph.add_task_in(
                    TaskCategory::HostStaging,
                    "stage_emb_grads",
                    costs.host_staging(big_b * pooled_remote, &host_dev)
                        + self.knobs.rpc_overhead * (remote_tables * remote_servers as u64) as f64,
                    Some(host_res),
                    &t_bwd,
                );
                let t_up = graph.add_task_in(
                    TaskCategory::NicTransfer,
                    "net_emb_grads",
                    nic.transfer_time(
                        Bytes::new(big_b * pooled_remote),
                        remote_tables * remote_servers as u64,
                    ),
                    Some(nic_res),
                    &[t_bstage],
                );
                let ps_dev = recsim_hw::device::skylake_dual_socket();
                for k in 0..remote_servers {
                    tail_tasks.push(
                        graph.add_task_in(
                            TaskCategory::PsUpdate,
                            format!("ps_scatter{k}"),
                            costs
                                .embedding_scatter(
                                    big_b * server_gather[k],
                                    avg_remote_table,
                                    remote_table_count.div_ceil(remote_servers as u64),
                                    recsim_hw::DeviceKind::Cpu,
                                )
                                .time_on(&ps_dev)
                                + self.knobs.rpc_overhead,
                            Some(ps_res[k]),
                            &[t_up],
                        ),
                    );
                }
            }

            // ---- Dense all-reduce + optimizer --------------------------------
            let mlp_bytes = self.config.mlp_parameter_bytes();
            let opt_deps: Vec<TaskId> = if g_count > 1 {
                let ring_bytes = 2 * mlp_bytes * (g_count as u64 - 1) / g_count as u64;
                let mlp_layers =
                    (self.config.bottom_mlp().len() + self.config.top_mlp().len() + 1) as u64;
                let ar = self.add_exchange(
                    &mut graph,
                    "allreduce_dense",
                    &t_bwd,
                    ring_bytes,
                    ring_bytes,
                    mlp_layers,
                    nvlink_res,
                    &pcie_res,
                    host_res,
                    &costs,
                );
                vec![ar]
            } else {
                t_bwd.clone()
            };
            for g in 0..g_count {
                let t = graph.add_task_in(
                    TaskCategory::Optimizer,
                    format!("dense_optimizer{g}"),
                    costs.dense_optimizer().time_on(&gpu_devs[g]),
                    Some(gpu_res[g]),
                    &opt_deps,
                );
                tail_tasks.push(t);
            }

            graph.add_barrier("iteration_done", &tail_tasks);
        }
        graph
    }

    fn report(&self, iteration_time: recsim_hw::units::Duration, schedule: &Schedule) -> SimReport {
        let g_count = self.platform.gpus().len();
        let small_b = (self.batch / g_count as u64).max(1);
        let remote_servers = self.placement.remote_loads().len();
        let utilizations = schedule.utilizations();
        let platform_util: Vec<f64> = utilizations
            .iter()
            .filter(|(n, _)| !n.starts_with("sparse_ps"))
            .map(|(_, u)| *u)
            .collect();
        let avg_util = platform_util.iter().sum::<f64>() / platform_util.len().max(1) as f64;
        let mut power = self.platform.power().draw(avg_util);
        if remote_servers > 0 {
            let ps_util: f64 = utilizations
                .iter()
                .filter(|(n, _)| n.starts_with("sparse_ps"))
                .map(|(_, u)| *u)
                .sum::<f64>()
                / remote_servers as f64;
            power = power + PowerModel::cpu_server().draw(ps_util) * remote_servers as f64;
        }
        // Attribute the reported (steady-state) iteration time across the
        // schedule's critical-path categories: each category keeps its share
        // of the makespan, scaled so the breakdown sums to iteration_time.
        let makespan = schedule.makespan().as_secs();
        let scale = if makespan > 0.0 {
            iteration_time.as_secs() / makespan
        } else {
            0.0
        };
        let attribution: Vec<(String, recsim_hw::units::Duration)> = schedule
            .attribution()
            .into_iter()
            .map(|(label, d)| {
                (
                    label,
                    recsim_hw::units::Duration::from_secs(d.as_secs() * scale),
                )
            })
            .collect();
        let setup = format!(
            "{} / {} / batch {}",
            self.platform.name(),
            self.placement.strategy(),
            self.batch
        );
        // Construction validated batch > 0 and every task cost is positive,
        // so the Err arm is unreachable in practice; keep run() total.
        match SimReport::new(
            setup.clone(),
            iteration_time,
            (small_b * g_count as u64) as f64,
            utilizations,
            schedule.bottleneck(),
            power,
        ) {
            Ok(report) => report.with_attribution(attribution),
            Err(_) => SimReport::degenerate(setup),
        }
    }

    /// Adds a collective exchange among GPUs: over NVLink when present,
    /// otherwise staged through host memory via PCIe. Returns the barrier
    /// task that completes the exchange.
    #[allow(clippy::too_many_arguments)]
    fn add_exchange(
        &self,
        graph: &mut TaskGraph,
        name: &str,
        deps: &[TaskId],
        egress_bytes_per_gpu: u64,
        ingress_bytes_per_gpu: u64,
        rounds: u64,
        nvlink: Option<ResourceId>,
        pcie_res: &[ResourceId],
        host_res: ResourceId,
        costs: &IterationCosts<'_>,
    ) -> TaskId {
        let g_count = self.platform.gpus().len();
        let rounds = rounds.max(1);
        // Frameworks issue one collective per table (or per layer bucket);
        // each pays a rendezvous barrier and per-peer message latency.
        let barrier_cost = self.knobs.collective_barrier * rounds as f64;
        match nvlink {
            Some(nv) => {
                // The nvlink resource only exists when the link does; the
                // fallback keeps this total without a panicking call.
                let link = self.nvlink.unwrap_or(self.pcie);
                let tasks: Vec<TaskId> = (0..g_count)
                    .map(|g| {
                        graph.add_task_in(
                            TaskCategory::AllToAll,
                            format!("{name}_gpu{g}"),
                            link.transfer_time(
                                Bytes::new(egress_bytes_per_gpu.max(1)),
                                rounds * (g_count as u64 - 1).max(1),
                            ) + barrier_cost,
                            Some(nv),
                            deps,
                        )
                    })
                    .collect();
                graph.add_barrier(format!("{name}_done"), &tasks)
            }
            None => {
                // No direct GPU-GPU path: D2H per GPU, host staging of the
                // full volume, then H2D per GPU. This is the prototype-Zion
                // relay the paper calls out in Section VI.B.
                let pcie = self.pcie;
                let hop = self.knobs.staged_hop_latency * rounds as f64;
                let ups: Vec<TaskId> = (0..g_count)
                    .map(|g| {
                        graph.add_task_in(
                            TaskCategory::PcieTransfer,
                            format!("{name}_d2h{g}"),
                            pcie.transfer_time(Bytes::new(egress_bytes_per_gpu.max(1)), rounds)
                                + hop,
                            Some(pcie_res[g]),
                            deps,
                        )
                    })
                    .collect();
                let stage = graph.add_task_in(
                    TaskCategory::HostStaging,
                    format!("{name}_host_stage"),
                    costs.host_staging(egress_bytes_per_gpu * g_count as u64, self.platform.host())
                        + barrier_cost
                        + self.knobs.rpc_overhead * rounds as f64,
                    Some(host_res),
                    &ups,
                );
                let downs: Vec<TaskId> = (0..g_count)
                    .map(|g| {
                        graph.add_task_in(
                            TaskCategory::PcieTransfer,
                            format!("{name}_h2d{g}"),
                            pcie.transfer_time(Bytes::new(ingress_bytes_per_gpu.max(1)), rounds)
                                + hop,
                            Some(pcie_res[g]),
                            &[stage],
                        )
                    })
                    .collect();
                graph.add_barrier(format!("{name}_done"), &downs)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recsim_placement::PartitionScheme;

    fn test_config() -> ModelConfig {
        ModelConfig::test_suite(256, 16, 100_000, &[512, 512, 512])
    }

    fn big_basin() -> Platform {
        Platform::big_basin(Bytes::from_gib(32))
    }

    fn run(strategy: PlacementStrategy, batch: u64) -> SimReport {
        GpuTrainingSim::new(&test_config(), &big_basin(), strategy, batch)
            .expect("placement fits")
            .run()
    }

    #[test]
    fn produces_positive_throughput() {
        let r = run(
            PlacementStrategy::GpuMemory(PartitionScheme::TableWise),
            1600,
        );
        assert!(r.throughput() > 0.0);
        assert!(r.iteration_time().as_secs() > 0.0);
        assert!(r.bottleneck().is_some());
    }

    #[test]
    fn larger_batch_increases_gpu_throughput() {
        // Figure 11's GPU panel: throughput rises with batch size until
        // saturation.
        let strategies = PlacementStrategy::GpuMemory(PartitionScheme::TableWise);
        let small = run(strategies, 128);
        let large = run(strategies, 4096);
        assert!(
            large.throughput() > small.throughput() * 2.0,
            "batch scaling: {} vs {}",
            small.throughput(),
            large.throughput()
        );
    }

    #[test]
    fn gpu_memory_beats_remote_for_small_models() {
        // Figure 14's left side: when tables fit HBM, local placement wins.
        let local = run(
            PlacementStrategy::GpuMemory(PartitionScheme::TableWise),
            1600,
        );
        let remote = run(PlacementStrategy::RemoteCpu { servers: 8 }, 1600);
        assert!(
            local.throughput() > remote.throughput(),
            "local {} vs remote {}",
            local.throughput(),
            remote.throughput()
        );
    }

    #[test]
    fn zion_system_memory_beats_big_basin_system_memory() {
        // Figure 14: system-memory placement is fast on Zion (1 TB/s, 8
        // sockets) and slow on Big Basin (2 sockets). Use production-scale
        // tables (DRAM-resident, like M2's multi-GB tables).
        let cfg = ModelConfig::test_suite(256, 16, 20_000_000, &[512, 512, 512]);
        let bb = GpuTrainingSim::new(&cfg, &big_basin(), PlacementStrategy::SystemMemory, 1600)
            .unwrap()
            .run();
        let zion = GpuTrainingSim::new(
            &cfg,
            &Platform::zion_prototype(),
            PlacementStrategy::SystemMemory,
            1600,
        )
        .unwrap()
        .run();
        assert!(
            zion.throughput() > bb.throughput(),
            "zion {} vs bb {}",
            zion.throughput(),
            bb.throughput()
        );
    }

    #[test]
    fn zion_gpu_placement_suffers_without_interconnect() {
        // Figure 14: GPU-memory placement is best on Big Basin but poor on
        // prototype Zion (no GPU-GPU link). Use a model big enough that
        // tables cannot be replicated (forces the exchange).
        let cfg = ModelConfig::test_suite(256, 16, 30_000_000, &[512, 512, 512]);
        let bb = GpuTrainingSim::new(
            &cfg,
            &big_basin(),
            PlacementStrategy::GpuMemory(PartitionScheme::TableWise),
            1600,
        )
        .unwrap()
        .run();
        let zion = GpuTrainingSim::new(
            &cfg,
            &Platform::zion_prototype(),
            PlacementStrategy::GpuMemory(PartitionScheme::TableWise),
            1600,
        )
        .unwrap()
        .run();
        assert!(
            bb.throughput() > zion.throughput(),
            "bb {} vs zion {}",
            bb.throughput(),
            zion.throughput()
        );
    }

    #[test]
    fn replicated_placement_trades_comm_for_duplicate_updates() {
        let sim = GpuTrainingSim::new(
            &test_config(),
            &big_basin(),
            PlacementStrategy::GpuMemory(PartitionScheme::Replicated),
            1600,
        )
        .unwrap();
        assert!(sim
            .placement()
            .assignments()
            .iter()
            .all(|a| a.location == TableLocation::Replicated));
        let replicated = sim.run();
        let distributed = GpuTrainingSim::new(
            &test_config(),
            &big_basin(),
            PlacementStrategy::GpuMemory(PartitionScheme::TableWise),
            1600,
        )
        .unwrap()
        .run();
        // Both work; neither is free: replication duplicates the update
        // traffic on every GPU.
        assert!(replicated.throughput() > 0.0);
        assert!(distributed.throughput() > 0.0);
    }

    #[test]
    fn remote_placement_uses_ps_and_nic() {
        let r = run(PlacementStrategy::RemoteCpu { servers: 4 }, 1600);
        assert!(r.utilization_of("sparse_ps0").unwrap() > 0.0);
        assert!(r.utilization_of("nic").unwrap() > 0.0);
        assert!(
            r.power().as_watts()
                > Platform::big_basin(Bytes::from_gib(32))
                    .power()
                    .draw(1.0)
                    .as_watts()
                    * 0.3,
            "remote setup counts PS power"
        );
    }

    #[test]
    fn dgx_a100_outpaces_big_basin() {
        // The related-work generation gap: DGX-A100 trains the same model
        // meaningfully faster than Big Basin.
        let cfg = test_config();
        let strategy = PlacementStrategy::GpuMemory(PartitionScheme::TableWise);
        let bb = GpuTrainingSim::new(&cfg, &big_basin(), strategy, 1600)
            .unwrap()
            .run();
        let dgx = GpuTrainingSim::new(&cfg, &Platform::dgx_a100(), strategy, 1600)
            .unwrap()
            .run();
        assert!(
            dgx.throughput() > bb.throughput() * 1.1,
            "generation gap: {} vs {}",
            bb.throughput(),
            dgx.throughput()
        );
    }

    #[test]
    fn host_cache_recovers_system_memory_throughput() {
        // The caching opportunity: a hot-row cache in HBM serving most
        // lookups pulls system-memory placement toward GPU-memory speed.
        let cfg = ModelConfig::test_suite(256, 16, 5_000_000, &[512, 512, 512]);
        let bb = big_basin();
        let uncached = GpuTrainingSim::new(&cfg, &bb, PlacementStrategy::SystemMemory, 1600)
            .unwrap()
            .run();
        let cached = GpuTrainingSim::new(&cfg, &bb, PlacementStrategy::SystemMemory, 1600)
            .unwrap()
            .with_host_cache_hit_rate(0.9)
            .expect("valid hit rate")
            .run();
        assert!(
            cached.throughput() > uncached.throughput(),
            "cache must help: {} vs {}",
            cached.throughput(),
            uncached.throughput()
        );
    }

    #[test]
    fn cache_hit_rate_validated() {
        let cfg = test_config();
        let err = GpuTrainingSim::new(&cfg, &big_basin(), PlacementStrategy::SystemMemory, 256)
            .unwrap()
            .with_host_cache_hit_rate(1.5)
            .expect_err("hit rate above 1 rejected");
        match err {
            SimError::Invalid(v) => {
                assert!(v.has_code(Code::InvalidClusterConfig));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn zero_batch_is_rejected_with_rv029() {
        let err = GpuTrainingSim::new(
            &test_config(),
            &big_basin(),
            PlacementStrategy::SystemMemory,
            0,
        )
        .expect_err("zero batch rejected");
        match err {
            SimError::Invalid(v) => {
                assert!(v.has_code(Code::InvalidClusterConfig));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn bad_knobs_are_rejected_with_rv024() {
        let knobs = CostKnobs {
            staging_fraction: -1.0,
            ..CostKnobs::default()
        };
        let err = GpuTrainingSim::new(
            &test_config(),
            &big_basin(),
            PlacementStrategy::SystemMemory,
            256,
        )
        .unwrap()
        .with_knobs(knobs)
        .expect_err("negative staging fraction rejected");
        match err {
            SimError::Invalid(v) => {
                assert!(v.has_code(Code::InvalidCostKnob));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn straggler_gpu_slows_the_whole_iteration() {
        // Data-parallel training paces at the slowest worker (the paper's
        // "system or hardware level variability").
        let cfg = test_config();
        let strategy = PlacementStrategy::GpuMemory(PartitionScheme::TableWise);
        let healthy = GpuTrainingSim::new(&cfg, &big_basin(), strategy, 1600)
            .unwrap()
            .run();
        let degraded = GpuTrainingSim::new(
            &cfg,
            &big_basin().with_straggler_gpu(5, 0.4),
            strategy,
            1600,
        )
        .unwrap()
        .run();
        assert!(
            degraded.throughput() < healthy.throughput() * 0.95,
            "one slow GPU drags the fleet: {} vs {}",
            degraded.throughput(),
            healthy.throughput()
        );
    }

    #[test]
    fn perturbed_run_matches_plain_under_identity_and_slows_otherwise() {
        use crate::des::{NoPerturbation, Perturbation};
        use recsim_hw::units::Duration;

        let sim = GpuTrainingSim::new(
            &test_config(),
            &big_basin(),
            PlacementStrategy::GpuMemory(PartitionScheme::TableWise),
            1600,
        )
        .unwrap();
        let mut scratch = SimScratch::new();
        let plain = sim.run_in(&mut scratch);
        let identity = sim.run_perturbed_in(&mut scratch, &NoPerturbation);
        assert_eq!(plain, identity);

        struct SlowGpu;
        impl Perturbation for SlowGpu {
            fn perturbed_duration(
                &self,
                resource: Option<&str>,
                _category: TaskCategory,
                base: Duration,
            ) -> Duration {
                if resource == Some("gpu2") {
                    base * 4.0
                } else {
                    base
                }
            }
        }
        let degraded = sim.run_perturbed_in(&mut scratch, &SlowGpu);
        assert!(
            degraded.throughput() < plain.throughput(),
            "straggler perturbation must cost throughput: {} vs {}",
            degraded.throughput(),
            plain.throughput()
        );
    }

    #[test]
    fn report_is_deterministic() {
        let a = run(PlacementStrategy::SystemMemory, 800);
        let b = run(PlacementStrategy::SystemMemory, 800);
        assert_eq!(a, b);
    }
}
