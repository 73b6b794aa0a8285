//! Cross-crate integration scenarios: the workflows a downstream user of
//! the library would actually run, exercised end-to-end through the facade.

use recsim::prelude::*;
use recsim::sim::CostKnobs;

/// The M3 story, end to end: generate the model, observe that it cannot be
/// placed on Big Basin's HBM, fall back to remote parameter servers, and
/// confirm the Zion system-memory port wins.
#[test]
fn m3_capacity_story() {
    let m3 = production_model(ProductionModelId::M3);
    let bb = Platform::big_basin(Bytes::from_gib(32));

    // HBM placement must fail on capacity.
    let gpu_mem = Placement::plan(
        &m3,
        &bb,
        PlacementStrategy::GpuMemory(PartitionScheme::RowWise),
        2.0,
    );
    assert!(
        gpu_mem.is_err(),
        "M3's hundreds of GBs cannot fit 256 GiB HBM"
    );

    // Remote placement works but is slow relative to the CPU fleet.
    let remote = GpuTrainingSim::new(&m3, &bb, PlacementStrategy::RemoteCpu { servers: 8 }, 800)
        .expect("8 x 256 GB PS hold M3")
        .run();
    let cpu = CpuTrainingSim::new(
        &m3,
        CpuClusterSetup {
            trainers: 8,
            dense_ps: 4,
            sparse_ps: 4,
            hogwild_threads: 4,
            batch_per_thread: 200,
            sync_period: 16,
        },
    )
    .expect("valid setup")
    .run();
    assert!(
        remote.throughput() < cpu.throughput(),
        "remote-placement Big Basin ({:.0}) must lose to the CPU fleet ({:.0})",
        remote.throughput(),
        cpu.throughput()
    );

    // Zion's 2 TB system memory recovers the throughput.
    let zion = GpuTrainingSim::new(
        &m3,
        &Platform::zion_prototype(),
        PlacementStrategy::SystemMemory,
        1600,
    )
    .expect("2 TB holds M3")
    .run();
    assert!(
        zion.throughput() > cpu.throughput(),
        "Zion ({:.0}) must beat the CPU fleet ({:.0})",
        zion.throughput(),
        cpu.throughput()
    );
}

/// A full train-then-measure loop: the same ModelConfig drives both the
/// real numerics and the simulator, and both views are consistent (the
/// model learns; the simulator prices it).
#[test]
fn shared_config_drives_numerics_and_simulation() {
    let config = ModelConfig::test_suite(16, 4, 1_000, &[32, 16]);

    // Simulated throughput exists and embedding traffic matches geometry.
    let report = GpuTrainingSim::new(
        &config,
        &Platform::big_basin(Bytes::from_gib(16)),
        PlacementStrategy::GpuMemory(PartitionScheme::TableWise),
        512,
    )
    .expect("tiny model fits")
    .run();
    assert!(report.throughput() > 0.0);

    // Real training on the same config converges below base-rate NE.
    let run = TrainRun::new(
        &config,
        TrainerConfig {
            batch_size: 64,
            train_examples: 16_000,
            eval_examples: 4_000,
            learning_rate: 0.05,
            warmup_steps: 10,
            adagrad: true,
            seed: 5,
        },
    )
    .execute();
    assert!(run.final_ne() < 1.0, "NE {}", run.final_ne());
}

/// Knob overrides flow through: disabling every GPU-hostile mechanism must
/// make the simulated GPU strictly faster.
#[test]
fn cost_knob_overrides_compose() {
    let config = ModelConfig::test_suite(256, 16, 1_000_000, &[512, 512, 512]);
    let bb = Platform::big_basin(Bytes::from_gib(32));
    let strategy = PlacementStrategy::GpuMemory(PartitionScheme::TableWise);
    let base = GpuTrainingSim::new(&config, &bb, strategy, 1600)
        .expect("fits")
        .run();
    let knobs = CostKnobs {
        gemm_half_efficiency_flops: 1.0, // near-peak GEMMs
        gpu_scatter_efficiency: 1.0,     // free atomics
        ..CostKnobs::default()
    };
    let tuned = GpuTrainingSim::new(&config, &bb.without_kernel_overhead(), strategy, 1600)
        .expect("fits")
        .with_knobs(knobs)
        .expect("valid knobs")
        .run();
    assert!(
        tuned.throughput() > base.throughput() * 1.5,
        "idealized GPU {:.0} should far exceed modeled GPU {:.0}",
        tuned.throughput(),
        base.throughput()
    );
}

/// EASGD multi-worker training through the facade still learns.
#[test]
fn easgd_workers_learn_through_facade() {
    use recsim::train::parallel::{easgd_train, EasgdConfig};
    let config = ModelConfig::test_suite(8, 2, 200, &[16]);
    let outcome = easgd_train(&config, EasgdConfig::quick_test(3));
    let ne = outcome.evaluate_ne(&config, 9999, 3000);
    assert!(ne < 1.0, "center model NE {ne}");
}

/// The design-space sweep helpers produce monotone costs along each axis.
#[test]
fn geometry_monotonicity_across_the_design_space() {
    use recsim::core::design_space::TestSuite;
    let suite = TestSuite::default();
    let mut last_flops = 0;
    for dense in TestSuite::dense_axis() {
        let m = suite.model(dense, 16);
        assert!(m.forward_flops_per_example() > last_flops);
        last_flops = m.forward_flops_per_example();
    }
    let mut last_bytes = 0;
    for sparse in TestSuite::sparse_axis() {
        let m = suite.model(256, sparse);
        assert!(m.embedding_read_bytes_per_example() > last_bytes);
        last_bytes = m.embedding_read_bytes_per_example();
    }
}

/// Bad command-line input exits exactly 1 with a message naming the flag
/// (or the RV0xx finding), never a panic and never a silent default. Every
/// case is rejected before any simulation or training runs, except the
/// unwritable `--trace` path, which fails after one cheap simulated
/// iteration.
#[test]
fn bad_cli_input_exits_1_without_panic() {
    let cases: &[(&[&str], &str)] = &[
        (&["simulate", "--dense", "0"], "--dense"),
        (&["simulate", "--mlp", "0x3"], "--mlp"),
        (&["simulate", "--hash", "0"], "--hash"),
        (&["train", "--batch", "0"], "--batch"),
        (&["train", "--examples", "0"], "--examples"),
        (&["train", "--lr", "nan"], "--lr"),
        (&["serve", "--capacity", "0"], "--capacity"),
        (&["serve", "--max-batch", "0"], "--max-batch"),
        (&["simulate", "--dense", "abc"], "--dense"),
        (&["simulate", "--nodes", "abc"], "--nodes"),
        (&["faults", "bb", "--seed", "-1"], "--seed"),
        (&["faults", "bb", "--interval", "-1"], "--interval"),
        (&["serve", "--duration", "0"], "--duration"),
        (&["serve", "--slo-ms", "-1"], "--slo-ms"),
        (&["run", "--quick", "--thredas", "2", "table1"], "--thredas"),
        (
            &["simulate", "--trace", "/nonexistent/dir/x.json"],
            "/nonexistent/dir/x.json",
        ),
        (&["simulate", "--hash", "1000000000000000000"], "RV028"),
        (&["shard", "bb", "extra"], "extra"),
        (&["shard", "bb", "--rows", "--zipf", "0"], "--zipf"),
        (&["shard", "bb", "--rows", "--zipf", "nan"], "--zipf"),
        (&["shard", "bb", "--rows", "--zipf", "-1"], "--zipf"),
        (&["shard", "bb", "--rows", "--zipf", "abc"], "--zipf"),
    ];
    for (argv, needle) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_recsim"))
            .args(*argv)
            .output()
            .expect("run the recsim binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        assert!(stderr.contains(needle), "{argv:?}: {stderr}");
    }
}
