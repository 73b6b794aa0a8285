//! The `recsim` command-line interface.
//!
//! ```text
//! recsim run (--all | <id>...) [--quick] [--threads N]  run experiment drivers
//! recsim simulate [options]               price one training setup
//! recsim shard <setup> [options]          auto-place embeddings, compare
//! recsim faults <setup> [options]         goodput under injected failures
//! recsim trace <setup> [options]          export a timeline + attribution
//! recsim prof <driver> [options]          profile the real hot path, calibrate
//! recsim train [options]                  really train a model, report NE
//! recsim serve <setup> [options]          serve a trained model under load
//! recsim models                           describe the M1/M2/M3 stand-ins
//! recsim verify                           validate presets, list RV0xx codes
//! recsim verify --detsan <id|all>         localize nondeterminism per stage
//! recsim help
//! ```

use recsim::prelude::*;
use recsim::sim::scaleout::min_nodes;
use recsim::sim::CostKnobs;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("shard") => cmd_shard(&args[1..]),
        Some("faults") => cmd_faults(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("prof") => cmd_prof(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("models") => cmd_models(),
        Some("verify") => cmd_verify(&args[1..]),
        Some("help") | None => {
            print_help();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`; try `recsim help`");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "recsim — training-efficiency laboratory for recommendation models\n\
         \n\
         USAGE:\n\
         \x20 recsim run (--all | <id>...)            run experiment drivers in parallel\n\
         \x20   [--quick] [--threads N]               (RECSIM_THREADS also honored;\n\
         \x20                                         RECSIM_RESULTS_DIR=<dir> writes\n\
         \x20                                         <id>.json + <id>_fig<i>.csv)\n\
         \x20 recsim simulate [options]               simulate one training setup\n\
         \x20 recsim shard <setup> [options]          auto-place embedding tables\n\
         \x20 recsim faults <setup> [options]         goodput under injected failures\n\
         \x20 recsim trace <setup> [options]          export a timeline + attribution\n\
         \x20 recsim prof <driver> [options]          run a driver with the hot-path\n\
         \x20                                         profiler armed; report per-op\n\
         \x20                                         time/FLOP/byte shares, roofline\n\
         \x20                                         bounds and sim-vs-measured\n\
         \x20                                         calibration (DESIGN.md §12)\n\
         \x20 recsim train [options]                  train for real, report NE\n\
         \x20 recsim serve <setup> [options]          price a serving scenario in\n\
         \x20                                         virtual time, then train a\n\
         \x20                                         model and score the exact\n\
         \x20                                         schedule through it\n\
         \x20 recsim models                           describe M1/M2/M3 stand-ins\n\
         \x20 recsim verify                           validate presets, list RV0xx codes\n\
         \x20 recsim verify --detsan <id|all>         run each driver at 1 vs N threads\n\
         \x20   [--quick] [--threads N]               and report the first divergent\n\
         \x20                                         stage + sweep point (DESIGN.md §11;\n\
         \x20                                         RECSIM_RESULTS_DIR writes -t1/-tN\n\
         \x20                                         artifact trees for CI diffing)\n\
         \n\
         SIMULATE OPTIONS (defaults in brackets):\n\
         \x20 --platform bb|bb16|zion|cpu [bb]   --placement gpu|rowwise|replicated|\n\
         \x20                                      system|remote|hybrid [gpu]\n\
         \x20 --dense N [256]   --sparse N [16]   --hash N [100000]\n\
         \x20 --mlp WxL [512x3] --batch N [1600]  --nodes N (multi-node scale-out)\n\
         \x20 --trace FILE (write a chrome://tracing timeline of one iteration)\n\
         \x20 --attribute (print the critical-path attribution breakdown)\n\
         \x20 --describe (print the table-by-table placement map)\n\
         \n\
         SHARD: recsim shard bb|bb16|zion\n\
         \x20 --solver greedy|pack|refine [refine]  --model m1|m2|m3 (production\n\
         \x20 stand-in instead of the simulate model flags)  --batch N [1600]\n\
         \x20 --rows (per-row hot/cold split over HBM/DDR/SCM)  --zipf S [1.1]\n\
         \x20 --hbm-gib N [8]  --ddr-gib N [host capacity]  --scm pmem|nvme [pmem] (with --rows)\n\
         \n\
         FAULTS: recsim faults bb|bb16|scaleout\n\
         \x20 --policy checkpoint|elastic|fail-stop|all [all]  --mtbf SECONDS [21600]\n\
         \x20 --interval SECONDS (checkpoint interval; default: Young's optimum)\n\
         \x20 --seed N [42]  --horizon SECONDS [86400]  --nodes N (scaleout only)\n\
         \x20 plus the simulate model flags and --model m1|m2|m3\n\
         \n\
         TRACE: recsim trace bb|bb16|zion|cpu|scaleout\n\
         \x20 --format chrome|text|summary [chrome]  --out FILE (default: stdout)\n\
         \x20 plus the simulate model/placement/batch/nodes flags\n\
         \n\
         PROF: recsim prof <driver> (any experiment id; automl and fig15 run\n\
         \x20 the real training loop)  [--quick]\n\
         \x20 --format summary|chrome|json [summary]  --out FILE (default: stdout)\n\
         \n\
         TRAIN OPTIONS:\n\
         \x20 --batch N [200]  --examples N [40000]  --lr F [0.04]  --seed N [31]\n\
         \x20 --dense N [16]   --sparse N [4]        --hash N [2000]\n\
         \n\
         SERVE: recsim serve steady|spike|push\n\
         \x20 --rps F [4000]  --duration SECONDS [2]  --seed N [7]\n\
         \x20 --policy lru|lfu|static-hot [lru]  --capacity ROWS [1024]\n\
         \x20 --max-batch N [16]  --max-delay-us N [2000]  --slo-ms F [5]\n\
         \x20 --multiplier F [6] (spike)  --stall-us N [20000] (push)\n\
         \x20 plus the train model flags (--dense/--sparse/--hash/--mlp)"
    );
}

/// Flags that never take a value, so `--quick fig06` keeps `fig06` as a
/// positional argument.
const SWITCHES: &[&str] = &["all", "quick", "attribute", "describe", "rows"];

fn parse_flags(args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if let Some(v) = it.peek().filter(|_| !SWITCHES.contains(&name)) {
                if !v.starts_with("--") {
                    flags.insert(name.to_string(), it.next().expect("peeked").clone());
                    continue;
                }
            }
            flags.insert(name.to_string(), "true".to_string());
        } else {
            positional.push(a.clone());
        }
    }
    (flags, positional)
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    flags
        .get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn build_model(flags: &HashMap<String, String>) -> ModelConfig {
    let dense = get(flags, "dense", 256usize);
    let sparse = get(flags, "sparse", 16usize);
    let hash = get(flags, "hash", 100_000u64);
    let mlp_spec = flags
        .get("mlp")
        .cloned()
        .unwrap_or_else(|| "512x3".to_string());
    let (w, l) = mlp_spec
        .split_once('x')
        .and_then(|(w, l)| Some((w.parse().ok()?, l.parse().ok()?)))
        .unwrap_or((512usize, 3usize));
    ModelConfig::test_suite(dense, sparse, hash, &vec![w; l])
}

/// `--quick` selects the reduced scale; the default is full scale.
fn effort(flags: &HashMap<String, String>) -> Effort {
    if flags.contains_key("quick") {
        Effort::Quick
    } else {
        Effort::Full
    }
}

/// `recsim run (--all | <id>...)` — run the selected experiment drivers
/// through the `recsim-pool` parallel sweep engine, print each report and a
/// per-driver wall-clock table, and exit non-zero if any claim fails.
/// `--threads N` overrides the pool width (equivalent to setting
/// `RECSIM_THREADS=N`); outputs are identical at any thread count. With
/// `RECSIM_RESULTS_DIR=<dir>` each driver's artifacts (`<id>.json` plus one
/// CSV per figure, the format of the committed `results/`) are written
/// there, and `--all` adds the run-specific `timings.json`.
fn cmd_run(args: &[String]) -> ExitCode {
    let (flags, ids) = parse_flags(args);
    let all = flags.contains_key("all");
    let selected = match (all, ids.is_empty()) {
        (true, true) => Ok(experiments::registry()),
        (false, false) => ids
            .iter()
            .map(|id| experiments::lookup(id).map(|driver| (id.as_str(), driver)))
            .collect(),
        _ => Err("usage: recsim run (--all | <id>...) [--quick] [--threads N]".to_string()),
    };
    let selected: Vec<(&str, experiments::Driver)> = match selected {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let effort = effort(&flags);
    if let Some(n) = flags.get("threads") {
        match n.parse::<usize>() {
            Ok(n) if n > 0 => recsim::pool::set_thread_override(Some(n)),
            _ => {
                eprintln!("--threads expects a positive integer, got `{n}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let threads = recsim::pool::thread_count();
    let start = std::time::Instant::now();
    // Same fan-out as `experiments::run_all`, with a per-driver wall clock
    // measured inside each (otherwise pure) sweep item. Timing rides along
    // in the fold result; the driver outputs stay byte-identical at any
    // thread count.
    let timed = recsim::core::sweep(&selected, |&(id, driver)| {
        let t = std::time::Instant::now();
        let out = driver(effort);
        (id, out, t.elapsed().as_secs_f64())
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut failed = 0usize;
    for (_, out, _) in &timed {
        print!("{}", out.render());
        println!();
        failed += out.failed_claims().len();
    }
    // Parallel fan-out means the per-driver times sum past the elapsed wall
    // time.
    let mut timings: Vec<(&str, f64)> = timed.iter().map(|(id, _, secs)| (*id, *secs)).collect();
    let timing_table = recsim::core::wall_clock_table(&mut timings);
    println!("per-driver wall clock:\n{timing_table}");
    if let Some(dir) = std::env::var_os("RECSIM_RESULTS_DIR") {
        let dir = std::path::PathBuf::from(dir);
        for (_, out, _) in &timed {
            if let Err(e) = recsim::core::write_artifacts(out, &dir) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        if all {
            let rows: Vec<String> = timings
                .iter()
                .map(|(id, secs)| format!("    {{\"driver\": \"{id}\", \"wall_secs\": {secs:.6}}}"))
                .collect();
            let timings_json = format!(
                "{{\n  \"schema\": \"recsim-run-timings-v1\",\n  \"threads\": {threads},\n  \
                 \"total_wall_secs\": {elapsed:.6},\n  \"drivers\": [\n{}\n  ]\n}}\n",
                rows.join(",\n")
            );
            let path = dir.join("timings.json");
            if let Err(e) = std::fs::write(&path, timings_json) {
                eprintln!("could not write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("(timings written to {})", path.display());
        }
    }
    println!(
        "ran {} driver(s) across {threads} thread(s) in {elapsed:.2}s",
        timed.len()
    );
    if failed > 0 {
        eprintln!("{failed} claim(s) failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_simulate(args: &[String]) -> ExitCode {
    let (flags, _) = parse_flags(args);
    let model = build_model(&flags);
    let batch = get(&flags, "batch", 1600u64);

    // Multi-node scale-out mode.
    if let Some(nodes) = flags.get("nodes").and_then(|v| v.parse::<u32>().ok()) {
        return match ScaleOutSim::new(&model, nodes, batch) {
            Ok(sim) => {
                print_report(&sim.run());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("scale-out error: {e} (min nodes = {})", min_nodes(&model));
                ExitCode::FAILURE
            }
        };
    }

    let platform_name = flags
        .get("platform")
        .cloned()
        .unwrap_or_else(|| "bb".to_string());
    if platform_name == "cpu" {
        return match CpuTrainingSim::new(&model, CpuClusterSetup::single_trainer(batch.min(800))) {
            Ok(sim) => {
                print_report(&sim.run());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("invalid CPU setup: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let platform = match platform_name.as_str() {
        "bb" => Platform::big_basin(Bytes::from_gib(32)),
        "bb16" => Platform::big_basin(Bytes::from_gib(16)),
        "zion" => Platform::zion_prototype(),
        other => {
            eprintln!("unknown platform `{other}` (bb, bb16, zion, cpu)");
            return ExitCode::FAILURE;
        }
    };
    let Some(placement) = parse_placement(&flags) else {
        return ExitCode::FAILURE;
    };
    match GpuTrainingSim::new(&model, &platform, placement, batch) {
        Ok(sim) => {
            let report = sim.run();
            print_report(&report);
            if flags.contains_key("attribute") {
                print_attribution(&report);
            }
            if flags.contains_key("describe") {
                print!("{}", sim.placement().describe());
            }
            if let Some(path) = flags.get("trace") {
                match std::fs::write(path, chrome_trace(&sim.trace())) {
                    Ok(()) => println!(
                        "timeline written to {path} (open in chrome://tracing or Perfetto)"
                    ),
                    Err(e) => eprintln!("could not write trace: {e}"),
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot simulate this setup: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_placement(flags: &HashMap<String, String>) -> Option<PlacementStrategy> {
    match flags.get("placement").map_or("gpu", String::as_str) {
        "gpu" => Some(PlacementStrategy::GpuMemory(PartitionScheme::TableWise)),
        "rowwise" => Some(PlacementStrategy::GpuMemory(PartitionScheme::RowWise)),
        "replicated" => Some(PlacementStrategy::GpuMemory(PartitionScheme::Replicated)),
        "system" => Some(PlacementStrategy::SystemMemory),
        "remote" => Some(PlacementStrategy::RemoteCpu { servers: 8 }),
        "hybrid" => Some(PlacementStrategy::Hybrid),
        other => {
            eprintln!("unknown placement `{other}`");
            None
        }
    }
}

/// `recsim shard <setup>` — search for the embedding placement minimizing
/// predicted iteration time, print the plan, and compare it against the
/// best static Figure-8 strategy on the same inputs. Setups are the GPU
/// platforms (`bb`, `bb16`, `zion`); `--model m1|m2|m3` swaps in a
/// production stand-in, otherwise the simulate model flags apply.
fn cmd_shard(args: &[String]) -> ExitCode {
    let (flags, positional) = parse_flags(args);
    let setup = positional.first().map_or("bb", String::as_str);
    let platform = match setup {
        "bb" => Platform::big_basin(Bytes::from_gib(32)),
        "bb16" => Platform::big_basin(Bytes::from_gib(16)),
        "zion" => Platform::zion_prototype(),
        other => {
            eprintln!("unknown setup `{other}` (bb, bb16, zion — auto-sharding needs GPUs)");
            return ExitCode::FAILURE;
        }
    };
    let model = match flags.get("model").map(String::as_str) {
        Some("m1") => production_model(ProductionModelId::M1),
        Some("m2") => production_model(ProductionModelId::M2),
        Some("m3") => production_model(ProductionModelId::M3),
        Some(other) => {
            eprintln!("unknown model `{other}` (m1, m2, m3)");
            return ExitCode::FAILURE;
        }
        None => build_model(&flags),
    };
    let batch = get(&flags, "batch", 1600u64);
    if flags.contains_key("rows") {
        return cmd_shard_rows(&flags, &model, &platform, batch);
    }
    let solver_name = flags.get("solver").map_or("refine", String::as_str);
    let Some(solver) = solver_by_name(solver_name) else {
        eprintln!("unknown solver `{solver_name}` (greedy, pack, refine)");
        return ExitCode::FAILURE;
    };
    match solver.shard(&model, &platform, batch) {
        Ok(plan) => {
            print!("{}", plan.describe());
            match best_static(&model, &platform, batch) {
                Some(best) => {
                    let auto_ms = plan.iteration_time().as_secs() * 1e3;
                    let static_ms = best.iteration_time().as_secs() * 1e3;
                    println!(
                        "best static (`{}`): {static_ms:.3} ms — auto plan is {:+.1}%",
                        best.solver(),
                        (auto_ms / static_ms - 1.0) * 100.0
                    );
                }
                None => println!("no static Figure-8 strategy places this model"),
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("auto-sharding failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `recsim shard <setup> --rows` — per-row hot/cold sharding over the
/// HBM / host DDR / SCM hierarchy: split every table into row ranges from
/// the Zipf access CDF, print the plan and compare it against the
/// whole-table baseline at the same HBM budget. `--zipf` sets the lookup
/// skew, `--hbm-gib` the aggregate HBM byte budget for hot slices,
/// `--ddr-gib` caps the warm host-DDR tier (default: the host's physical
/// capacity), and `--scm pmem|nvme` picks the cold tier device.
fn cmd_shard_rows(
    flags: &HashMap<String, String>,
    model: &ModelConfig,
    platform: &Platform,
    batch: u64,
) -> ExitCode {
    let scm = match flags.get("scm").map(String::as_str) {
        None | Some("pmem") => ScmDevice::optane_pmem(),
        Some("nvme") => ScmDevice::nvme_flash(),
        Some(other) => {
            eprintln!("unknown SCM device `{other}` (pmem, nvme)");
            return ExitCode::FAILURE;
        }
    };
    let platform = platform.with_scm(scm);
    let zipf = match flags.get("zipf").map(|v| (v, v.parse::<f64>())) {
        None => 1.1,
        Some((_, Ok(s))) => s,
        Some((v, Err(_))) => {
            eprintln!("--zipf expects a number, got `{v}`");
            return ExitCode::FAILURE;
        }
    };
    let budget = Bytes::from_gib(get(flags, "hbm-gib", 8u64));
    let host_gib = platform.host().memory().capacity().as_u64() >> 30;
    let ddr = Bytes::from_gib(get(flags, "ddr-gib", host_gib));
    let row = match RowShardSolver::default()
        .solve_with_caps(model, &platform, batch, zipf, budget, ddr)
    {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("per-row sharding failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", row.describe());
    match per_table_plan_with_caps(model, &platform, batch, zipf, budget, ddr) {
        Ok(table) => {
            let row_ms = row.cost().as_secs() * 1e3;
            let table_ms = table.cost().as_secs() * 1e3;
            println!(
                "per-table baseline at the same {budget} HBM budget: {table_ms:.3} ms — \
                 per-row plan is {:+.1}%",
                (row_ms / table_ms - 1.0) * 100.0
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("per-table baseline failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `recsim faults <setup>` — price a fault environment and report each
/// recovery policy's goodput. Setups: the GPU platforms (`bb`, `bb16`) and
/// `scaleout` (multi-node sharded GPU memory). The schedule is a pure
/// function of `(seed, mtbf, horizon)`, so output is byte-identical at any
/// thread count.
fn cmd_faults(args: &[String]) -> ExitCode {
    let (flags, positional) = parse_flags(args);
    let setup = positional.first().map_or("bb", String::as_str);
    let model = match flags.get("model").map(String::as_str) {
        Some("m1") => production_model(ProductionModelId::M1),
        Some("m2") => production_model(ProductionModelId::M2),
        Some("m3") => production_model(ProductionModelId::M3),
        Some(other) => {
            eprintln!("unknown model `{other}` (m1, m2, m3)");
            return ExitCode::FAILURE;
        }
        None => build_model(&flags),
    };
    let fault_cfg = FaultConfig {
        seed: get(&flags, "seed", 42u64),
        horizon_secs: get(&flags, "horizon", 86_400.0f64),
        ..FaultConfig::default()
    }
    .with_device_mtbf(get(&flags, "mtbf", 21_600.0f64));

    let built = match setup {
        "bb" | "bb16" => {
            let platform = if setup == "bb16" {
                Platform::big_basin(Bytes::from_gib(16))
            } else {
                Platform::big_basin(Bytes::from_gib(32))
            };
            let batch = get(&flags, "batch", 1600u64);
            FaultSchedule::generate(&fault_cfg, platform.gpus().len())
                .map_err(FaultError::from)
                .and_then(|schedule| {
                    let ctx = FaultContext::for_gpu_training(
                        &model, &platform, batch, &fault_cfg, &schedule,
                    )?;
                    Ok((schedule, ctx))
                })
        }
        "scaleout" => {
            let nodes = get(&flags, "nodes", min_nodes(&model) + 2);
            let batch = get(&flags, "batch", 800u64);
            FaultSchedule::generate(&fault_cfg, nodes as usize * 8)
                .map_err(FaultError::from)
                .and_then(|schedule| {
                    let ctx =
                        FaultContext::for_scale_out(&model, nodes, batch, &fault_cfg, &schedule)?;
                    Ok((schedule, ctx))
                })
        }
        other => {
            eprintln!("unknown setup `{other}` (bb, bb16, scaleout)");
            return ExitCode::FAILURE;
        }
    };
    let (schedule, ctx) = match built {
        Ok(parts) => parts,
        Err(e) => {
            eprintln!("fault setup failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let failures = schedule.device_failures();
    println!("{}", ctx.setup());
    println!(
        "horizon {:.1} h, device MTBF {:.1} h: {} device failures, {} fault events",
        ctx.horizon_secs() / 3_600.0,
        fault_cfg.device_mtbf_secs / 3_600.0,
        failures,
        schedule.events().len()
    );
    println!(
        "healthy {:.0} ex/s, degraded {:.0} ex/s; checkpoint write {:.1} s, restart {:.1} s",
        ctx.baseline_samples_per_sec(),
        ctx.degraded_samples_per_sec(),
        ctx.checkpoint_write_secs(),
        ctx.restart_secs()
    );
    let interval = flags
        .get("interval")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| CheckpointRestart::optimal_interval(&ctx, fault_cfg.device_mtbf_secs));
    println!("checkpoint interval {interval:.0} s");

    let wanted = flags.get("policy").map_or("all", String::as_str);
    let names: Vec<&str> = if wanted == "all" {
        POLICY_NAMES.to_vec()
    } else if POLICY_NAMES.contains(&wanted) {
        vec![wanted]
    } else {
        eprintln!("unknown policy `{wanted}` (checkpoint, elastic, fail-stop, all)");
        return ExitCode::FAILURE;
    };
    for name in names {
        let Some(policy) = policy_by_name(name, interval) else {
            continue;
        };
        let g = policy.goodput(&ctx, failures);
        println!(
            "  {:<10} {:>8.0} ex/s goodput  ({:.1}% useful, {:.0} s overhead)",
            g.policy,
            g.goodput_samples_per_sec,
            g.useful_fraction * 100.0,
            g.overhead_secs
        );
    }
    ExitCode::SUCCESS
}

/// `recsim trace <setup>` — export one iteration's execution timeline and
/// its critical-path attribution. Setups: the GPU platforms (`bb`, `bb16`,
/// `zion`), `cpu` (single-trainer fleet) and `scaleout` (multi-node sharded
/// GPU memory). Formats: `chrome` (Perfetto-loadable JSON), `text`
/// (per-resource timeline), `summary` (category/attribution/slack tables).
fn cmd_trace(args: &[String]) -> ExitCode {
    const TOP_K: usize = 5;
    let (flags, positional) = parse_flags(args);
    let model = build_model(&flags);
    let batch = get(&flags, "batch", 1600u64);
    let setup = positional.first().map_or("bb", String::as_str);

    let (trace, cp) = match setup {
        "cpu" => {
            match CpuTrainingSim::new(&model, CpuClusterSetup::single_trainer(batch.min(800))) {
                Ok(sim) => (sim.trace(), sim.critical_path(TOP_K)),
                Err(e) => {
                    eprintln!("invalid CPU setup: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "scaleout" => {
            let nodes = get(&flags, "nodes", min_nodes(&model).max(2));
            match ScaleOutSim::new(&model, nodes, batch) {
                Ok(sim) => (sim.trace(), sim.critical_path(TOP_K)),
                Err(e) => {
                    eprintln!("scale-out error: {e} (min nodes = {})", min_nodes(&model));
                    return ExitCode::FAILURE;
                }
            }
        }
        name @ ("bb" | "bb16" | "zion") => {
            let platform = match name {
                "bb" => Platform::big_basin(Bytes::from_gib(32)),
                "bb16" => Platform::big_basin(Bytes::from_gib(16)),
                _ => Platform::zion_prototype(),
            };
            let Some(placement) = parse_placement(&flags) else {
                return ExitCode::FAILURE;
            };
            match GpuTrainingSim::new(&model, &platform, placement, batch) {
                Ok(sim) => (sim.trace(), sim.critical_path(TOP_K)),
                Err(e) => {
                    eprintln!("cannot trace this setup: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        other => {
            eprintln!("unknown setup `{other}` (bb, bb16, zion, cpu, scaleout)");
            return ExitCode::FAILURE;
        }
    };

    let rendered = match flags.get("format").map_or("chrome", String::as_str) {
        "chrome" => chrome_trace(&trace),
        "text" => recsim::trace::text_timeline(&trace),
        "summary" => format!(
            "busy time by category:\n{}\ncritical-path attribution ({}):\n{}\ntop slack:\n{}",
            recsim::trace::category_summary(&trace),
            setup,
            attribution_table(&cp),
            recsim::trace::slack_table(&cp),
        ),
        other => {
            eprintln!("unknown format `{other}` (chrome, text, summary)");
            return ExitCode::FAILURE;
        }
    };
    match flags.get("out") {
        Some(path) => match std::fs::write(path, rendered) {
            Ok(()) => {
                println!("trace written to {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                ExitCode::FAILURE
            }
        },
        None => {
            print!("{rendered}");
            ExitCode::SUCCESS
        }
    }
}

/// `recsim prof <driver>` — run one experiment driver with the hot-path
/// profiler armed (`recsim-prof` scopes on every model kernel and train
/// phase), then report per-op time/FLOP/byte shares against the host
/// roofline plus the sim-vs-measured calibration join (DESIGN.md §12).
/// Formats: `summary` (text tables), `chrome` (Perfetto-loadable spans of
/// the retained samples), `json` (the full [`ProfileReport`]).
fn cmd_prof(args: &[String]) -> ExitCode {
    let (flags, positional) = parse_flags(args);
    let Some(id) = positional.first() else {
        eprintln!(
            "usage: recsim prof <driver> [--quick] [--format summary|chrome|json] [--out FILE]"
        );
        return ExitCode::FAILURE;
    };
    let report = match profile_driver(id, effort(&flags)) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let rendered = match flags.get("format").map_or("summary", String::as_str) {
        "summary" => report.summary(),
        "chrome" => report.chrome(),
        "json" => report.json() + "\n",
        other => {
            eprintln!("unknown format `{other}` (summary, chrome, json)");
            return ExitCode::FAILURE;
        }
    };
    match flags.get("out") {
        Some(path) => match std::fs::write(path, rendered) {
            Ok(()) => {
                println!("profile written to {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                ExitCode::FAILURE
            }
        },
        None => {
            print!("{rendered}");
            ExitCode::SUCCESS
        }
    }
}

/// Prints a [`SimReport`]'s critical-path attribution (the `--attribute`
/// flag): how the steady-state iteration time splits across categories.
fn print_attribution(report: &SimReport) {
    if report.attribution().is_empty() {
        println!("attribution:    (none recorded)");
        return;
    }
    let total = report.iteration_time().as_secs();
    println!("attribution (critical path):");
    for (label, d) in report.attribution() {
        let share = if total > 0.0 {
            d.as_secs() / total * 100.0
        } else {
            0.0
        };
        println!("  {label:<18} {d} ({share:.1}%)");
    }
}

/// `recsim verify` — the semantic half of the verification layer: runs every
/// built-in platform, production model and the default cost knobs through
/// [`Validate`] and prints the structured findings. The source-lint half
/// lives in the standalone driver (`cargo run -p recsim-verify -- lint`).
/// With `--detsan <id|all>` it instead runs the determinism sanitizer
/// (DESIGN.md §11): each selected driver at 1 worker vs N workers with the
/// per-stage digest recorder armed, reporting the first divergent stage and
/// sweep point.
fn cmd_verify(args: &[String]) -> ExitCode {
    let (flags, positional) = parse_flags(args);
    if !positional.is_empty() {
        eprintln!("usage: recsim verify [--detsan <id|all> [--quick] [--threads N]]");
        return ExitCode::FAILURE;
    }
    if let Some(target) = flags.get("detsan") {
        return cmd_verify_detsan(target, &flags);
    }
    let mut findings: Vec<(String, Diagnostic)> = Vec::new();
    let mut checked = 0usize;
    let mut check = |subject: String, diags: Vec<Diagnostic>| {
        checked += 1;
        findings.extend(diags.into_iter().map(|d| (subject.clone(), d)));
    };

    for (name, platform) in [
        (
            "platform bb (32 GiB)",
            Platform::big_basin(Bytes::from_gib(32)),
        ),
        ("platform bb16", Platform::big_basin(Bytes::from_gib(16))),
        ("platform zion", Platform::zion_prototype()),
        ("platform cpu", Platform::dual_socket_cpu()),
    ] {
        check(name.to_string(), platform.validate());
    }
    for id in ProductionModelId::ALL {
        let m = production_model(id);
        check(format!("model {}", id.name()), m.validate());
        // The Table III placement for this model must also validate.
        let setup = recsim::core::setups::ProductionSetup::for_model(id);
        if let Ok(p) = Placement::plan(
            &m,
            &Platform::big_basin(Bytes::from_gib(32)),
            setup.gpu_placement,
            recsim::placement::plan::ADAGRAD_STATE_MULTIPLIER,
        ) {
            check(format!("placement {} on bb", id.name()), p.validate());
        }
    }
    check(
        "cost knobs (default)".to_string(),
        CostKnobs::default().validate(),
    );

    for (subject, d) in &findings {
        println!("{subject}: {d}");
    }
    let errors = findings
        .iter()
        .filter(|(_, d)| d.severity() == Severity::Error)
        .count();
    println!(
        "verified {checked} subject(s): {} finding(s), {errors} error(s)",
        findings.len()
    );
    println!("(source lints: cargo run -p recsim-verify -- lint; codes: -- codes)");
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `recsim verify --detsan <id|all>` — the runtime half of the determinism
/// sanitizer. Runs each selected driver serially and at N workers with the
/// `recsim-detsan` recorder armed, then compares the per-stage digest
/// streams; a mismatch names the first divergent stage and sweep point.
/// The deliberately broken `detsan_demo` driver is selectable by id but
/// excluded from `all`. With `RECSIM_RESULTS_DIR=<dir>` the serial and
/// parallel artifacts are persisted to `<dir>-t1/` and `<dir>-tN/` so CI
/// can byte-diff them as a backstop.
fn cmd_verify_detsan(target: &str, flags: &HashMap<String, String>) -> ExitCode {
    let effort = effort(flags);
    let threads = match flags.get("threads") {
        Some(n) => match n.parse::<usize>() {
            Ok(n) if n >= 2 => n,
            _ => {
                eprintln!("--threads expects an integer >= 2, got `{n}`");
                return ExitCode::FAILURE;
            }
        },
        None => recsim::pool::thread_count().max(2),
    };
    // A bare `--detsan` parses as the value "true": sweep everything.
    let target = if target == "true" { "all" } else { target };
    let selected: Vec<(&str, experiments::Driver)> = match target {
        "all" => experiments::registry(),
        "detsan_demo" => vec![(target, experiments::detsan_demo::run)],
        _ => match experiments::lookup(target) {
            Ok(driver) => vec![(target, driver)],
            Err(e) => {
                eprintln!("{e}; or `detsan_demo`, or `all`");
                return ExitCode::FAILURE;
            }
        },
    };

    let results_dir = std::env::var_os("RECSIM_RESULTS_DIR")
        .map(|d| std::path::PathBuf::from(d).to_string_lossy().into_owned());
    let mut dirty = 0usize;
    for (id, driver) in &selected {
        let cmp = recsim::core::detsan_check::compare_driver(id, *driver, effort, threads);
        println!("{}", cmp.describe());
        if let Some(base) = &results_dir {
            for (suffix, json) in [
                ("t1".to_string(), &cmp.json_serial),
                (format!("t{threads}"), &cmp.json_parallel),
            ] {
                let dir = std::path::PathBuf::from(format!("{base}-{suffix}"));
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    eprintln!("cannot create {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
                let path = dir.join(format!("{id}.json"));
                if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        if !cmp.is_clean() {
            dirty += 1;
        }
    }
    if let Some(base) = &results_dir {
        println!(
            "(artifacts written to {base}-t1 and {base}-t{threads}, {} driver(s) each)",
            selected.len()
        );
    }
    println!(
        "detsan: {} driver(s) compared at 1 vs {threads} thread(s), {dirty} divergent",
        selected.len()
    );
    if dirty > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_report(report: &SimReport) {
    println!("setup:          {}", report.setup());
    println!("iteration time: {}", report.iteration_time());
    println!("throughput:     {:.0} examples/s", report.throughput());
    println!("power:          {}", report.power());
    println!("efficiency:     {:.1} examples/J", report.perf_per_watt());
    if let Some((name, util)) = report.bottleneck() {
        println!("bottleneck:     {name} at {:.0}% utilization", util * 100.0);
    }
    println!("utilization:");
    let mut utils: Vec<_> = report.utilizations().to_vec();
    utils.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    for (name, u) in utils.into_iter().take(12) {
        if u > 0.005 {
            println!("  {name:<18} {:>5.1}%", u * 100.0);
        }
    }
}

fn cmd_train(args: &[String]) -> ExitCode {
    let (mut flags, _) = parse_flags(args);
    flags.entry("dense".into()).or_insert_with(|| "16".into());
    flags.entry("sparse".into()).or_insert_with(|| "4".into());
    flags.entry("hash".into()).or_insert_with(|| "2000".into());
    flags.entry("mlp".into()).or_insert_with(|| "32x2".into());
    let model = build_model(&flags);
    let config = TrainerConfig {
        batch_size: get(&flags, "batch", 200usize),
        train_examples: get(&flags, "examples", 40_000usize),
        eval_examples: 8_000,
        learning_rate: get(&flags, "lr", 0.04f32),
        warmup_steps: 20,
        adagrad: true,
        seed: get(&flags, "seed", 31u64),
    };
    println!(
        "training {} for {} examples at batch {} (lr {})...",
        model.name(),
        config.train_examples,
        config.batch_size,
        config.learning_rate
    );
    let run = TrainRun::new(&model, config).execute();
    let hist = run.loss_history();
    println!("steps:           {}", hist.len());
    println!(
        "first-step loss: {:.4}",
        hist.first().copied().unwrap_or(0.0)
    );
    println!(
        "last-step loss:  {:.4}",
        hist.last().copied().unwrap_or(0.0)
    );
    println!(
        "held-out NE:     {:.4}  (1.0 = base-rate prediction)",
        run.final_ne()
    );
    ExitCode::SUCCESS
}

/// `recsim serve <setup>` — run the online inference serving tier: price
/// the scenario in virtual time (micro-batching, embedding cache, SLO
/// tails), then really train a DLRM and push the exact priced schedule
/// through its forward path. Setups: `steady` (stationary Poisson),
/// `spike` (transient rate burst mid-run), `push` (mid-run model swap: a
/// second model trained at `seed + 1` takes over behind a weight-transfer
/// stall and a cold cache).
fn cmd_serve(args: &[String]) -> ExitCode {
    let (mut flags, positional) = parse_flags(args);
    let setup = positional.first().map_or("steady", String::as_str);
    flags.entry("dense".into()).or_insert_with(|| "16".into());
    flags.entry("sparse".into()).or_insert_with(|| "4".into());
    flags.entry("hash".into()).or_insert_with(|| "2000".into());
    flags.entry("mlp".into()).or_insert_with(|| "32x2".into());
    let model = build_model(&flags);

    let seed = get(&flags, "seed", 7u64);
    let duration = get(&flags, "duration", 2.0f64);
    let rps = get(&flags, "rps", 4_000.0f64);
    let mut workload = WorkloadConfig::steady(seed, rps, duration);
    let mut push = None;
    match setup {
        "steady" => {}
        "spike" => {
            workload.spike = Some(Spike {
                start_secs: duration * 0.4,
                duration_secs: duration * 0.2,
                multiplier: get(&flags, "multiplier", 6.0f64),
            });
        }
        "push" => {
            push = Some(ModelPush {
                at_secs: duration * 0.5,
                stall_us: get(&flags, "stall-us", 20_000u64),
            });
        }
        other => {
            eprintln!("unknown setup `{other}` (steady, spike, push)");
            return ExitCode::FAILURE;
        }
    }
    let policy_name = flags.get("policy").map_or("lru", String::as_str);
    let Some(policy) = CachePolicy::from_name(policy_name) else {
        eprintln!("unknown cache policy `{policy_name}` (lru, lfu, static-hot)");
        return ExitCode::FAILURE;
    };
    let cfg = ServeConfig {
        workload,
        policy,
        capacity_rows: get(&flags, "capacity", 1_024usize),
        batching: BatchPolicy::new(
            get(&flags, "max-batch", 16usize),
            get(&flags, "max-delay-us", 2_000u64),
        ),
        slo_ms: get(&flags, "slo-ms", 5.0f64),
        push,
    };

    let latency = LatencyModel::closed_form(&model);
    println!(
        "serving {} under `{setup}` load: {rps:.0} rps x {duration:.1} s, {} cache of {} \
         rows, batch <= {} within {} us, SLO {} ms (latency: closed-form hw model)",
        model.name(),
        policy.name(),
        cfg.capacity_rows,
        cfg.batching.max_batch,
        cfg.batching.max_delay_us,
        cfg.slo_ms,
    );
    let report = simulate(&model, &cfg, &latency);
    print_serve_report(&report);

    // The real pass: train, then score the exact priced schedule.
    let train_seed = get(&flags, "train-seed", 17u64);
    let trainer = TrainerConfig {
        seed: train_seed,
        ..TrainerConfig::quick_test()
    };
    println!("\ntraining {} for the execution pass...", model.name());
    let run = TrainRun::new(&model, trainer).execute();
    println!(
        "  held-out NE {:.4} after {} steps",
        run.final_ne(),
        run.loss_history().len()
    );
    let (requests, batches) = recsim::serve::schedule(&model, &cfg, &latency);
    let build_cache = |requests: &[recsim::serve::Request]| match policy {
        CachePolicy::StaticHot => {
            let flat: Vec<_> = requests
                .iter()
                .flat_map(recsim::serve::Request::row_keys)
                .collect();
            EmbeddingCache::static_hot(&recsim::serve::optimal_static_set(&flat, cfg.capacity_rows))
        }
        p => EmbeddingCache::new(p, cfg.capacity_rows),
    };
    let mut cache = build_cache(&requests);
    let push_split = cfg.push.map(|p| {
        let at = (p.at_secs * 1e6) as u64;
        batches.partition_point(|b| requests[b.start].arrival_us < at)
    });
    match push_split {
        Some(split) if split < batches.len() => {
            let pre = execute_schedule(
                run.model(),
                &model,
                &requests,
                &batches[..split],
                &mut cache,
                seed,
            );
            print_execution("pre-push ", &pre);
            println!(
                "  model push: training the replacement at seed {}...",
                train_seed + 1
            );
            let fresh = TrainRun::new(
                &model,
                TrainerConfig {
                    seed: train_seed + 1,
                    ..trainer
                },
            )
            .execute();
            let mut cold = build_cache(&requests);
            let post = execute_schedule(
                fresh.model(),
                &model,
                &requests,
                &batches[split..],
                &mut cold,
                seed,
            );
            print_execution("post-push", &post);
        }
        _ => print_execution(
            "executed ",
            &execute_schedule(run.model(), &model, &requests, &batches, &mut cache, seed),
        ),
    }
    ExitCode::SUCCESS
}

/// Prints a [`ServeReport`]'s headline numbers and attribution.
fn print_serve_report(r: &ServeReport) {
    println!(
        "requests:       {} over {:.2} s ({:.0} rps offered)",
        r.requests, r.duration_secs, r.offered_rps
    );
    println!(
        "micro-batches:  {} (mean batch {:.1})",
        r.batches, r.mean_batch
    );
    println!(
        "latency:        p50 {:.3} ms, p99 {:.3} ms, p999 {:.3} ms",
        r.p50_ms, r.p99_ms, r.p999_ms
    );
    println!(
        "cache:          {:.1}% hits, {} evictions",
        r.hit_rate * 100.0,
        r.evictions
    );
    println!(
        "slo:            {:.1}% within {} ms -> goodput {:.0} rps",
        r.slo_attainment * 100.0,
        r.slo_ms,
        r.goodput_rps
    );
    if !r.attribution.is_empty() {
        println!("served time:");
        for (label, share) in &r.attribution {
            println!("  {label:<18} {:>5.1}%", share * 100.0);
        }
    }
    if let Some(p) = &r.push {
        println!(
            "model push:     p99 {:.3} -> {:.3} ms, hit rate {:.1}% -> {:.1}% \
             ({:.0} ms stall)",
            p.pre_p99_ms,
            p.post_p99_ms,
            p.pre_hit_rate * 100.0,
            p.post_hit_rate * 100.0,
            p.stall_ms
        );
    }
}

/// Prints one real-execution pass.
fn print_execution(tag: &str, s: &recsim::serve::ExecutionSummary) {
    let probes = (s.hits + s.misses).max(1);
    println!(
        "  {tag} {} examples in {} batches: mean click score {:.4}, cache \
         {:.1}% hits, score digest {:#018x}",
        s.examples,
        s.batches,
        s.mean_score,
        100.0 * s.hits as f64 / probes as f64,
        s.score_digest
    );
}

fn cmd_models() -> ExitCode {
    for id in ProductionModelId::ALL {
        let m = production_model(id);
        println!(
            "{:<8} {:>4} sparse x {:>4} dense, {:>7.1} GiB embeddings, {:>5.1} lookups/feature, \
             bottom {:?}, top {:?}",
            id.name(),
            m.num_sparse(),
            m.num_dense(),
            m.total_embedding_bytes() as f64 / (1u64 << 30) as f64,
            m.mean_lookups_per_feature(),
            m.bottom_mlp(),
            m.top_mlp(),
        );
    }
    ExitCode::SUCCESS
}
