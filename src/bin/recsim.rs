//! The `recsim` command-line interface. Every command and flag is declared
//! once, in [`COMMANDS`] and [`FLAGS`]: [`parse`] checks argv against them
//! and `recsim help` is rendered from them. Bad input (an unknown flag, a
//! missing, unparsable or out-of-range value, an extra positional) exits 1
//! with a message naming it before any command runs; the configs the
//! commands build then meet the simulators' RV0xx `Validate` checks.

use recsim::metrics::json;
use recsim::prelude::*;
use recsim::sim::scaleout::min_nodes;
use recsim::sim::CostKnobs;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::str::FromStr;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => return fail(format_args!("{e}; see `recsim help`")),
    };
    match args.cmd {
        "run" => cmd_run(&args),
        "simulate" => cmd_simulate(&args),
        "shard" => cmd_shard(&args),
        "faults" => cmd_faults(&args),
        "trace" => cmd_trace(&args),
        "prof" => cmd_prof(&args),
        "train" => cmd_train(&args),
        "serve" => cmd_serve(&args),
        "models" => cmd_models(),
        "verify" => cmd_verify(&args),
        _ => {
            print!("{}", help());
            ExitCode::SUCCESS
        }
    }
}

/// What a flag's value must be. A [`Kind::Switch`] takes no value; every
/// other kind takes the next argument, which must not start with `--`.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Switch,
    /// An integer in `min..=max`.
    Int(u64, u64),
    /// A positive number, finite even as an `f32` (`--lr` is one).
    Float,
    Choice(&'static [&'static str]),
    /// An [`Mlp`] shape.
    Shape,
    /// Non-empty text; the metavar says what (a file, a driver id).
    Text(&'static str),
}

const POS: Kind = Kind::Int(1, u64::MAX);
const UINT: Kind = Kind::Int(0, u64::MAX);
const NODES: Kind = Kind::Int(1, u32::MAX as u64);
/// GiB, bounded so the byte count fits a `u64`.
const GIB: Kind = Kind::Int(0, u64::MAX >> 30);
/// The deepest `--mlp` stack, so the layer list stays small.
const MAX_LAYERS: usize = 1024;

impl Kind {
    /// The value placeholder shown in the help.
    fn metavar(self) -> String {
        match self {
            Kind::Switch => String::new(),
            Kind::Int(..) => "N".into(),
            Kind::Float => "X".into(),
            Kind::Choice(choices) => choices.join("|"),
            Kind::Shape => "WxL".into(),
            Kind::Text(metavar) => metavar.into(),
        }
    }

    /// What the kind accepts, for error messages.
    fn expects(self) -> String {
        match self {
            Kind::Switch => "no value".into(),
            Kind::Int(min, u64::MAX) => format!("an integer >= {min}"),
            Kind::Int(min, max) => format!("an integer in {min}..={max}"),
            Kind::Float => "a positive finite number".into(),
            Kind::Choice(choices) => format!("one of {}", choices.join(", ")),
            Kind::Shape => format!("WxL with W >= 1 and L in 1..={MAX_LAYERS}"),
            Kind::Text(metavar) => format!("a non-empty {metavar}"),
        }
    }

    /// Whether `raw` parses as this kind and is in its range.
    fn admits(self, raw: &str) -> bool {
        match self {
            Kind::Switch => false,
            Kind::Int(min, max) => raw.parse().is_ok_and(|n| (min..=max).contains(&n)),
            Kind::Float => raw.parse().is_ok_and(|x: f32| x > 0.0 && x.is_finite()),
            Kind::Choice(choices) => choices.contains(&raw),
            Kind::Shape => raw.parse::<Mlp>().is_ok(),
            Kind::Text(_) => !raw.is_empty(),
        }
    }
}

/// `--mlp WxL`: `L` layers of width `W`, both stacks.
struct Mlp(Vec<usize>);

impl FromStr for Mlp {
    type Err = ();

    fn from_str(raw: &str) -> Result<Self, ()> {
        let (w, l) = raw.split_once('x').ok_or(())?;
        match (w.parse().map_err(drop)?, l.parse().map_err(drop)?) {
            (w @ 1.., l @ 1..=MAX_LAYERS) => Ok(Mlp(vec![w; l])),
            _ => Err(()),
        }
    }
}

/// A flag's value when it is not given.
#[derive(Debug, Clone, Copy)]
enum FlagDefault {
    /// No value: the flag is off or the command does without it.
    Unset,
    /// A literal, checked by the flag's kind like a given value.
    Lit(&'static str),
    /// Computed by the command from its other inputs; the text says how.
    Computed(&'static str),
}

use FlagDefault::{Computed, Lit, Unset};

/// One row of the flag table: (commands that accept it, name, kind,
/// default, help).
struct Flag(
    &'static [&'static str],
    &'static str,
    Kind,
    FlagDefault,
    &'static str,
);

/// Commands that price a Section V test-suite model (or a stand-in).
const SIM: &[&str] = &["simulate", "shard", "faults", "trace"];
/// Commands that really train a (small) test-suite model.
const TRAIN: &[&str] = &["train", "serve"];

/// Every flag of every command.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag(&["run"], "all", Kind::Switch, Unset, "run every registered driver"),
    Flag(&["run", "prof", "verify"], "quick", Kind::Switch, Unset, "reduced scale instead of full"),
    Flag(&["run"], "threads", POS, Computed("RECSIM_THREADS, else the cores"), "pool width"),
    Flag(&["verify"], "detsan", Kind::Text("id|all"), Unset, "compare drivers at 1 vs N threads"),
    Flag(&["verify"], "threads", Kind::Int(2, u64::MAX), Computed("pool width, at least 2"), "N for --detsan"),
    Flag(&["shard", "faults"], "model", Kind::Choice(&["m1", "m2", "m3"]), Unset, "production stand-in instead of the model flags"),
    Flag(SIM, "dense", POS, Lit("256"), "dense features"),
    Flag(SIM, "sparse", UINT, Lit("16"), "sparse features, one table each"),
    Flag(SIM, "hash", POS, Lit("100000"), "rows per embedding table"),
    Flag(SIM, "mlp", Kind::Shape, Lit("512x3"), "MLP width x layers, both stacks"),
    Flag(TRAIN, "dense", POS, Lit("16"), "dense features"),
    Flag(TRAIN, "sparse", UINT, Lit("4"), "sparse features, one table each"),
    Flag(TRAIN, "hash", POS, Lit("2000"), "rows per embedding table"),
    Flag(TRAIN, "mlp", Kind::Shape, Lit("32x2"), "MLP width x layers, both stacks"),
    Flag(&["simulate", "shard", "trace"], "batch", POS, Lit("1600"), "global batch"),
    Flag(&["faults"], "batch", POS, Computed("1600; 800 for scaleout"), "global batch"),
    Flag(&["train"], "batch", POS, Lit("200"), "mini-batch"),
    Flag(&["simulate"], "platform", Kind::Choice(&["bb", "bb16", "zion", "cpu"]), Lit("bb"), "single-node platform"),
    Flag(&["simulate", "trace"], "placement", Kind::Choice(&["gpu", "rowwise", "replicated", "system", "remote", "hybrid"]), Lit("gpu"), "embedding placement (GPU platforms)"),
    Flag(&["simulate"], "nodes", NODES, Unset, "multi-node scale-out instead of one platform"),
    Flag(&["trace"], "nodes", NODES, Computed("max(min nodes, 2)"), "nodes (scaleout)"),
    Flag(&["faults"], "nodes", NODES, Computed("min nodes + 2"), "nodes (scaleout)"),
    Flag(&["simulate"], "trace", Kind::Text("FILE"), Unset, "write a chrome://tracing timeline of one iteration"),
    Flag(&["simulate"], "attribute", Kind::Switch, Unset, "print the critical-path attribution"),
    Flag(&["simulate"], "describe", Kind::Switch, Unset, "print the table-by-table placement map"),
    Flag(&["shard"], "solver", Kind::Choice(&["greedy", "pack", "refine"]), Lit("refine"), "placement search"),
    Flag(&["shard"], "rows", Kind::Switch, Unset, "per-row hot/cold split over HBM/DDR/SCM"),
    Flag(&["shard"], "zipf", Kind::Float, Lit("1.1"), "lookup skew exponent (--rows)"),
    Flag(&["shard"], "hbm-gib", GIB, Lit("8"), "HBM budget for hot slices (--rows)"),
    Flag(&["shard"], "ddr-gib", GIB, Computed("host capacity"), "warm host-DDR cap (--rows)"),
    Flag(&["shard"], "scm", Kind::Choice(&["pmem", "nvme"]), Lit("pmem"), "cold tier device (--rows)"),
    Flag(&["faults"], "policy", Kind::Choice(&["checkpoint", "elastic", "fail-stop", "all"]), Lit("all"), "recovery policy"),
    Flag(&["faults"], "mtbf", Kind::Float, Lit("21600"), "device MTBF, seconds"),
    Flag(&["faults"], "interval", Kind::Float, Computed("Young's optimum"), "checkpoint interval, seconds"),
    Flag(&["faults"], "horizon", Kind::Float, Lit("86400"), "simulated span, seconds"),
    Flag(&["faults"], "seed", UINT, Lit("42"), "fault schedule seed"),
    Flag(&["trace"], "format", Kind::Choice(&["chrome", "text", "summary"]), Lit("chrome"), "output format"),
    Flag(&["prof"], "format", Kind::Choice(&["summary", "chrome", "json"]), Lit("summary"), "output format"),
    Flag(&["trace", "prof"], "out", Kind::Text("FILE"), Computed("stdout"), "write the output to a file"),
    Flag(&["train"], "examples", POS, Lit("40000"), "training examples"),
    Flag(&["train"], "lr", Kind::Float, Lit("0.04"), "learning rate"),
    Flag(&["train"], "seed", UINT, Lit("31"), "data and init seed"),
    Flag(&["serve"], "rps", Kind::Float, Lit("4000"), "offered requests per second"),
    Flag(&["serve"], "duration", Kind::Float, Lit("2"), "seconds of load"),
    Flag(&["serve"], "seed", UINT, Lit("7"), "workload seed"),
    Flag(&["serve"], "train-seed", UINT, Lit("17"), "seed of the served model (push: +1)"),
    Flag(&["serve"], "policy", Kind::Choice(&["lru", "lfu", "static-hot"]), Lit("lru"), "embedding cache policy"),
    Flag(&["serve"], "capacity", POS, Lit("1024"), "cache rows"),
    Flag(&["serve"], "max-batch", POS, Lit("16"), "micro-batch size cap"),
    Flag(&["serve"], "max-delay-us", UINT, Lit("2000"), "micro-batch wait cap"),
    Flag(&["serve"], "slo-ms", Kind::Float, Lit("5"), "latency SLO"),
    Flag(&["serve"], "multiplier", Kind::Float, Lit("6"), "rate burst factor (spike)"),
    Flag(&["serve"], "stall-us", UINT, Lit("20000"), "weight-transfer stall (push)"),
];

/// A command's positional arguments.
#[derive(Debug, Clone, Copy)]
enum Positionals {
    None,
    /// At most one setup from the list; the first is the default.
    Setup(&'static [&'static str]),
    /// Exactly one experiment driver id.
    Driver,
    /// Any number of experiment driver ids.
    Drivers,
}

struct Command {
    name: &'static str,
    positionals: Positionals,
    about: &'static str,
}

/// Every command, in help order.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "run", positionals: Positionals::Drivers, about: "run the named experiment drivers (or --all) in parallel; exit 1 if a claim\nfails. RECSIM_RESULTS_DIR=<dir> writes <id>.json, <id>_fig<i>.csv and, with --all,\ntimings.json" },
    Command { name: "simulate", positionals: Positionals::None, about: "simulate one training setup" },
    Command { name: "shard", positionals: Positionals::Setup(&["bb", "bb16", "zion"]), about: "auto-place embedding tables and compare against the best static strategy" },
    Command { name: "faults", positionals: Positionals::Setup(&["bb", "bb16", "scaleout"]), about: "goodput of each recovery policy under injected failures" },
    Command { name: "trace", positionals: Positionals::Setup(&["bb", "bb16", "zion", "cpu", "scaleout"]), about: "export one iteration's timeline and critical-path attribution" },
    Command { name: "prof", positionals: Positionals::Driver, about: "run a driver with the hot-path profiler armed: per-op time/FLOP/byte shares,\nroofline bounds and sim-vs-measured calibration (DESIGN.md §12)" },
    Command { name: "train", positionals: Positionals::None, about: "train for real, report NE" },
    Command { name: "serve", positionals: Positionals::Setup(&["steady", "spike", "push"]), about: "price a serving scenario in virtual time, then train a model and score the\nexact schedule through it" },
    Command { name: "models", positionals: Positionals::None, about: "describe the M1/M2/M3 stand-ins" },
    Command { name: "verify", positionals: Positionals::None, about: "validate presets and list RV0xx findings; with --detsan, run each driver at\n1 vs N threads and report the first divergent stage and sweep point (DESIGN.md\n§11; RECSIM_RESULTS_DIR writes -t1/-tN artifact trees)" },
    Command { name: "help", positionals: Positionals::None, about: "print this help" },
];

/// The flags `cmd` accepts, in table order.
fn flags_of(cmd: &str) -> impl Iterator<Item = &'static Flag> + '_ {
    FLAGS.iter().filter(move |f| f.0.contains(&cmd))
}

/// A checked command line: the command, its positionals (a setup command
/// always has one) and the raw text of every flag value, literal defaults
/// included (a switch that is on maps to "").
#[derive(Debug)]
struct Args {
    cmd: &'static str,
    positional: Vec<String>,
    values: HashMap<&'static str, String>,
}

/// Checks `argv` (the command, then its arguments) against [`COMMANDS`] and
/// [`FLAGS`]. No argv at all means `help`.
fn parse(argv: &[String]) -> Result<Args, String> {
    let (name, rest) = argv
        .split_first()
        .map_or(("help", &[][..]), |(n, r)| (n.as_str(), r));
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command `{name}`"))?;
    let mut values: HashMap<_, _> = flags_of(cmd.name)
        .filter_map(|&Flag(_, name, _, default, _)| match default {
            Lit(raw) => Some((name, raw.to_string())),
            _ => None,
        })
        .collect();
    let mut positional = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            positional.push(arg.clone());
            continue;
        };
        let &Flag(_, flag, kind, ..) = flags_of(name)
            .find(|f| f.1 == key)
            .ok_or_else(|| format!("`recsim {name}` has no flag `{arg}`"))?;
        let mut raw = "";
        if !matches!(kind, Kind::Switch) {
            raw = it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("`{arg}` needs a value: {}", kind.expects()))?;
            if !kind.admits(raw) {
                return Err(format!("`{arg}` expects {}, got `{raw}`", kind.expects()));
            }
        }
        values.insert(flag, raw.to_string());
    }
    let max = match cmd.positionals {
        Positionals::None => 0,
        Positionals::Setup(setups) => {
            if positional.is_empty() {
                positional.push(setups[0].to_string());
            }
            if !setups.contains(&positional[0].as_str()) {
                let known = setups.join(", ");
                return Err(format!(
                    "unknown setup `{}` for `recsim {name}` ({known})",
                    positional[0]
                ));
            }
            1
        }
        Positionals::Driver if positional.is_empty() => {
            return Err(format!("`recsim {name}` needs a driver id"));
        }
        Positionals::Driver => 1,
        Positionals::Drivers => usize::MAX,
    };
    if let Some(extra) = positional.get(max) {
        return Err(format!("unexpected argument `{extra}` to `recsim {name}`"));
    }
    Ok(Args {
        cmd: cmd.name,
        positional,
        values,
    })
}

impl Args {
    /// The first positional: a setup command's setup or `prof`'s driver.
    fn setup(&self) -> &str {
        self.positional.first().map_or("", String::as_str)
    }

    fn on(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    /// `--flag`'s value, if given or defaulted to a literal. Its kind has
    /// checked the text, so it parses as the type the command reads.
    fn opt<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.values.get(flag).and_then(|raw| raw.parse().ok())
    }

    /// [`Args::opt`] for a flag with a literal default.
    fn get<T: FromStr>(&self, flag: &str) -> T {
        self.opt(flag)
            .unwrap_or_else(|| panic!("`--{flag}` is read as if it had a literal default"))
    }

    /// `--model m1|m2|m3`, else the Section V test-suite model built from
    /// `--dense/--sparse/--hash/--mlp`.
    fn model(&self) -> ModelConfig {
        match self.opt::<String>("model").as_deref() {
            Some("m1") => production_model(ProductionModelId::M1),
            Some("m2") => production_model(ProductionModelId::M2),
            Some(_) => production_model(ProductionModelId::M3),
            None => {
                let Mlp(mlp) = self.get("mlp");
                let (dense, sparse) = (self.get("dense"), self.get("sparse"));
                ModelConfig::test_suite(dense, sparse, self.get("hash"), &mlp)
            }
        }
    }

    /// `--quick` selects the reduced scale; the default is full scale.
    fn effort(&self) -> Effort {
        if self.on("quick") {
            Effort::Quick
        } else {
            Effort::Full
        }
    }

    /// `--placement` as a strategy.
    fn placement(&self) -> PlacementStrategy {
        match self.get::<String>("placement").as_str() {
            "rowwise" => PlacementStrategy::GpuMemory(PartitionScheme::RowWise),
            "replicated" => PlacementStrategy::GpuMemory(PartitionScheme::Replicated),
            "system" => PlacementStrategy::SystemMemory,
            "remote" => PlacementStrategy::RemoteCpu { servers: 8 },
            "hybrid" => PlacementStrategy::Hybrid,
            _ => PlacementStrategy::GpuMemory(PartitionScheme::TableWise),
        }
    }
}

/// The single-node GPU platform a `bb|bb16|zion` setup names.
fn gpu_platform(setup: &str) -> Platform {
    match setup {
        "bb16" => Platform::big_basin(Bytes::from_gib(16)),
        "zion" => Platform::zion_prototype(),
        _ => Platform::big_basin(Bytes::from_gib(32)),
    }
}

/// `recsim help`, rendered from [`COMMANDS`] and [`FLAGS`].
fn help() -> String {
    let mut out = String::from(
        "recsim — training-efficiency laboratory for recommendation models\n\n\
         USAGE: recsim <command> [<setup> | <id>...] [--flag [value]]...\n\
         Defaults are in brackets; a flag's value is the next argument.\n",
    );
    for cmd in COMMANDS {
        let positionals = match cmd.positionals {
            Positionals::None => String::new(),
            Positionals::Setup(setups) => format!(" [{}]", setups.join("|")),
            Positionals::Driver => " <driver>".into(),
            Positionals::Drivers => " [<id>...]".into(),
        };
        let _ = writeln!(out, "\nrecsim {}{positionals}", cmd.name);
        for line in cmd.about.lines() {
            let _ = writeln!(out, "  {line}");
        }
        for &Flag(_, name, kind, default, help) in flags_of(cmd.name) {
            let head = format!("--{name} {}", kind.metavar());
            let default = match default {
                Unset => String::new(),
                Lit(d) | Computed(d) => format!(" [{d}]"),
            };
            let _ = writeln!(out, "    {head:<28} {help}{default}");
        }
    }
    out
}

/// Reports `e` on stderr; the command exits 1.
fn fail(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("{e}");
    ExitCode::FAILURE
}

/// Writes `contents` to `path` and prints `announce(path)`, or prints the
/// contents to stdout without a path. A failed write exits 1.
fn emit(path: Option<String>, contents: &str, announce: impl Fn(&str) -> String) -> ExitCode {
    let Some(path) = path else {
        print!("{contents}");
        return ExitCode::SUCCESS;
    };
    match std::fs::write(&path, contents) {
        Ok(()) => {
            println!("{}", announce(&path));
            ExitCode::SUCCESS
        }
        Err(e) => fail(format_args!("could not write {path}: {e}")),
    }
}

/// `recsim run (--all | <id>...)` — run the selected drivers through the
/// `recsim-pool` sweep engine (outputs are identical at any thread count),
/// print each report and a per-driver wall-clock table, and exit non-zero
/// if any claim fails. `RECSIM_RESULTS_DIR=<dir>` gets each driver's
/// artifacts, in the format of the committed `results/`, and with `--all`
/// the run-specific `timings.json`.
fn cmd_run(args: &Args) -> ExitCode {
    let all = args.on("all");
    let selected = match (all, args.positional.is_empty()) {
        (true, true) => Ok(experiments::registry()),
        (false, false) => args
            .positional
            .iter()
            .map(|id| experiments::lookup(id).map(|driver| (id.as_str(), driver)))
            .collect(),
        _ => Err("usage: recsim run (--all | <id>...) [--quick] [--threads N]".to_string()),
    };
    let selected: Vec<(&str, experiments::Driver)> = match selected {
        Ok(selected) => selected,
        Err(e) => return fail(e),
    };
    let effort = args.effort();
    recsim::pool::set_thread_override(args.opt("threads"));
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
                return fail(e);
            }
        }
        if all {
            let drivers = timings.iter().map(|&(id, secs)| {
                json::Value::object([("driver", id.into()), ("wall_secs", secs.into())])
            });
            let timings_json = json::Value::object([
                ("schema", "recsim-run-timings-v1".into()),
                ("threads", threads.into()),
                ("total_wall_secs", elapsed.into()),
                ("drivers", json::Value::Array(drivers.collect())),
            ]);
            let path = dir.join("timings.json");
            if let Err(e) = std::fs::write(&path, timings_json.to_pretty() + "\n") {
                return fail(format_args!("could not write {}: {e}", path.display()));
            }
            println!("(timings written to {})", path.display());
        }
    }
    println!(
        "ran {} driver(s) across {threads} thread(s) in {elapsed:.2}s",
        timed.len()
    );
    if failed > 0 {
        fail(format_args!("{failed} claim(s) failed"))
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_simulate(args: &Args) -> ExitCode {
    let model = args.model();
    let batch: u64 = args.get("batch");
    let platform: String = args.get("platform");
    // Multi-node scale-out and the CPU trainer print the report alone.
    let report = match args.opt("nodes") {
        Some(nodes) => Some(scale_out(&model, nodes, batch).map(|sim| sim.run())),
        None if platform == "cpu" => Some(cpu_trainer(&model, batch).map(|sim| sim.run())),
        None => None,
    };
    match report {
        Some(Ok(report)) => {
            print_report(&report);
            return ExitCode::SUCCESS;
        }
        Some(Err(e)) => return fail(e),
        None => {}
    }
    let sim = match GpuTrainingSim::new(&model, &gpu_platform(&platform), args.placement(), batch) {
        Ok(sim) => sim,
        Err(e) => return fail(format_args!("cannot simulate this setup: {e}")),
    };
    let report = sim.run();
    print_report(&report);
    if args.on("attribute") {
        print_attribution(&report);
    }
    if args.on("describe") {
        print!("{}", sim.placement().describe());
    }
    match args.opt("trace") {
        Some(path) => emit(Some(path), &chrome_trace(&sim.trace()), |path| {
            format!("timeline written to {path} (open in chrome://tracing or Perfetto)")
        }),
        None => ExitCode::SUCCESS,
    }
}

/// The single-trainer CPU setup `simulate --platform cpu` and `trace cpu`
/// price.
fn cpu_trainer(model: &ModelConfig, batch: u64) -> Result<CpuTrainingSim, String> {
    CpuTrainingSim::new(model, CpuClusterSetup::single_trainer(batch.min(800)))
        .map_err(|e| format!("invalid CPU setup: {e}"))
}

/// The multi-node scale-out setup of `simulate --nodes` and `trace scaleout`.
fn scale_out(model: &ModelConfig, nodes: u32, batch: u64) -> Result<ScaleOutSim, String> {
    ScaleOutSim::new(model, nodes, batch)
        .map_err(|e| format!("scale-out error: {e} (min nodes = {})", min_nodes(model)))
}

/// `recsim shard <setup>` — search for the embedding placement minimizing
/// predicted iteration time, print the plan, and compare it against the
/// best static Figure-8 strategy on the same inputs.
fn cmd_shard(args: &Args) -> ExitCode {
    let platform = gpu_platform(args.setup());
    let model = args.model();
    let batch: u64 = args.get("batch");
    if args.on("rows") {
        return cmd_shard_rows(args, &model, &platform, batch);
    }
    let name: String = args.get("solver");
    let Some(solver) = solver_by_name(&name) else {
        return fail(format_args!("no solver `{name}`"));
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
        Err(e) => fail(format_args!("auto-sharding failed: {e}")),
    }
}

/// `recsim shard <setup> --rows` — per-row hot/cold sharding over the
/// HBM / host DDR / SCM hierarchy: split every table into row ranges from
/// the Zipf access CDF, print the plan and compare it against the
/// whole-table baseline at the same HBM budget.
fn cmd_shard_rows(args: &Args, model: &ModelConfig, platform: &Platform, batch: u64) -> ExitCode {
    let scm = match args.get::<String>("scm").as_str() {
        "nvme" => ScmDevice::nvme_flash(),
        _ => ScmDevice::optane_pmem(),
    };
    let platform = platform.with_scm(scm);
    let zipf: f64 = args.get("zipf");
    let budget = Bytes::from_gib(args.get("hbm-gib"));
    let host_gib = platform.host().memory().capacity().as_u64() >> 30;
    let ddr = Bytes::from_gib(args.opt("ddr-gib").unwrap_or(host_gib));
    let row = match RowShardSolver::default()
        .solve_with_caps(model, &platform, batch, zipf, budget, ddr)
    {
        Ok(plan) => plan,
        Err(e) => return fail(format_args!("per-row sharding failed: {e}")),
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
        Err(e) => fail(format_args!("per-table baseline failed: {e}")),
    }
}

/// `recsim faults <setup>` — price a fault environment and report each
/// recovery policy's goodput. The schedule is a pure function of `(seed,
/// mtbf, horizon)`, so output is byte-identical at any thread count.
fn cmd_faults(args: &Args) -> ExitCode {
    let model = args.model();
    let fault_cfg = FaultConfig {
        seed: args.get("seed"),
        horizon_secs: args.get("horizon"),
        ..FaultConfig::default()
    }
    .with_device_mtbf(args.get("mtbf"));

    let built = if args.setup() == "scaleout" {
        let nodes = args
            .opt("nodes")
            .unwrap_or_else(|| min_nodes(&model).saturating_add(2));
        let batch = args.opt("batch").unwrap_or(800);
        FaultSchedule::generate(&fault_cfg, nodes as usize * 8)
            .map_err(FaultError::from)
            .and_then(|schedule| {
                let ctx = FaultContext::for_scale_out(&model, nodes, batch, &fault_cfg, &schedule)?;
                Ok((schedule, ctx))
            })
    } else {
        let platform = gpu_platform(args.setup());
        let batch = args.opt("batch").unwrap_or(1600);
        FaultSchedule::generate(&fault_cfg, platform.gpus().len())
            .map_err(FaultError::from)
            .and_then(|schedule| {
                let ctx = FaultContext::for_gpu_training(
                    &model, &platform, batch, &fault_cfg, &schedule,
                )?;
                Ok((schedule, ctx))
            })
    };
    let (schedule, ctx) = match built {
        Ok(parts) => parts,
        Err(e) => return fail(format_args!("fault setup failed: {e}")),
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
    let interval = args
        .opt("interval")
        .unwrap_or_else(|| CheckpointRestart::optimal_interval(&ctx, fault_cfg.device_mtbf_secs));
    println!("checkpoint interval {interval:.0} s");

    let wanted: String = args.get("policy");
    for name in POLICY_NAMES {
        let policy = match policy_by_name(name, interval) {
            Some(policy) if wanted == "all" || wanted == name => policy,
            _ => continue,
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
/// its critical-path attribution: `chrome` (Perfetto-loadable JSON), `text`
/// (per-resource timeline) or `summary` (category/attribution/slack tables).
fn cmd_trace(args: &Args) -> ExitCode {
    const TOP_K: usize = 5;
    let model = args.model();
    let batch: u64 = args.get("batch");
    let setup = args.setup();

    let traced = match setup {
        "cpu" => cpu_trainer(&model, batch).map(|sim| (sim.trace(), sim.critical_path(TOP_K))),
        "scaleout" => {
            let nodes = args
                .opt("nodes")
                .unwrap_or_else(|| min_nodes(&model).max(2));
            scale_out(&model, nodes, batch).map(|sim| (sim.trace(), sim.critical_path(TOP_K)))
        }
        gpu => GpuTrainingSim::new(&model, &gpu_platform(gpu), args.placement(), batch)
            .map(|sim| (sim.trace(), sim.critical_path(TOP_K)))
            .map_err(|e| format!("cannot trace this setup: {e}")),
    };
    let (trace, cp) = match traced {
        Ok(traced) => traced,
        Err(e) => return fail(e),
    };

    let rendered = match args.get::<String>("format").as_str() {
        "text" => recsim::trace::text_timeline(&trace),
        "summary" => format!(
            "busy time by category:\n{}\ncritical-path attribution ({}):\n{}\ntop slack:\n{}",
            recsim::trace::category_summary(&trace),
            setup,
            attribution_table(&cp),
            recsim::trace::slack_table(&cp),
        ),
        _ => chrome_trace(&trace),
    };
    emit(args.opt("out"), &rendered, |path| {
        format!("trace written to {path}")
    })
}

/// `recsim prof <driver>` — run one experiment driver with the hot-path
/// profiler armed (`recsim-prof` scopes on every model kernel and train
/// phase) and render the [`ProfileReport`] (DESIGN.md §12).
fn cmd_prof(args: &Args) -> ExitCode {
    let report = match profile_driver(args.setup(), args.effort()) {
        Ok(report) => report,
        Err(e) => return fail(e),
    };
    let rendered = match args.get::<String>("format").as_str() {
        "chrome" => report.chrome(),
        "json" => report.json() + "\n",
        _ => report.summary(),
    };
    emit(args.opt("out"), &rendered, |path| {
        format!("profile written to {path}")
    })
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
fn cmd_verify(args: &Args) -> ExitCode {
    if let Some(target) = args.opt::<String>("detsan") {
        return cmd_verify_detsan(&target, args);
    }
    let mut findings: Vec<(String, Diagnostic)> = Vec::new();
    let mut checked = 0usize;
    let mut check = |subject: String, diags: Vec<Diagnostic>| {
        checked += 1;
        findings.extend(diags.into_iter().map(|d| (subject.clone(), d)));
    };

    for (name, platform) in [
        ("platform bb (32 GiB)", gpu_platform("bb")),
        ("platform bb16", gpu_platform("bb16")),
        ("platform zion", gpu_platform("zion")),
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
            &gpu_platform("bb"),
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
fn cmd_verify_detsan(target: &str, args: &Args) -> ExitCode {
    let effort = args.effort();
    let threads = args
        .opt("threads")
        .unwrap_or_else(|| recsim::pool::thread_count().max(2));
    let selected: Vec<(&str, experiments::Driver)> = match target {
        "all" => experiments::registry(),
        "detsan_demo" => vec![(target, experiments::detsan_demo::run)],
        _ => match experiments::lookup(target) {
            Ok(driver) => vec![(target, driver)],
            Err(e) => return fail(format_args!("{e}; or `detsan_demo`, or `all`")),
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
                let path = dir.join(format!("{id}.json"));
                let written = std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, format!("{json}\n")));
                if let Err(e) = written {
                    return fail(format_args!("cannot write {}: {e}", path.display()));
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

fn cmd_train(args: &Args) -> ExitCode {
    let model = args.model();
    let config = TrainerConfig {
        batch_size: args.get("batch"),
        train_examples: args.get("examples"),
        eval_examples: 8_000,
        learning_rate: args.get("lr"),
        warmup_steps: 20,
        adagrad: true,
        seed: args.get("seed"),
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
    let first = hist.first().copied().unwrap_or(0.0);
    let last = hist.last().copied().unwrap_or(0.0);
    let ne = run.final_ne();
    println!("steps:           {}", hist.len());
    println!("first-step loss: {first:.4}");
    println!("last-step loss:  {last:.4}");
    println!("held-out NE:     {ne:.4}  (1.0 = base-rate prediction)");
    ExitCode::SUCCESS
}

/// `recsim serve <setup>` — run the online inference serving tier: price
/// the scenario in virtual time (micro-batching, embedding cache, SLO
/// tails), then really train a DLRM and push the exact priced schedule
/// through its forward path. `steady` is stationary Poisson, `spike` a
/// mid-run rate burst, and `push` a mid-run swap to a model trained at
/// `seed + 1`, behind a weight-transfer stall and a cold cache.
fn cmd_serve(args: &Args) -> ExitCode {
    let setup = args.setup();
    let model = args.model();

    let seed: u64 = args.get("seed");
    let duration: f64 = args.get("duration");
    let rps: f64 = args.get("rps");
    let workload = WorkloadConfig {
        spike: (setup == "spike").then(|| Spike {
            start_secs: duration * 0.4,
            duration_secs: duration * 0.2,
            multiplier: args.get("multiplier"),
        }),
        ..WorkloadConfig::steady(seed, rps, duration)
    };
    let push = (setup == "push").then(|| ModelPush {
        at_secs: duration * 0.5,
        stall_us: args.get("stall-us"),
    });
    let name: String = args.get("policy");
    let Some(policy) = CachePolicy::from_name(&name) else {
        return fail(format_args!("no cache policy `{name}`"));
    };
    let cfg = ServeConfig {
        workload,
        policy,
        capacity_rows: args.get("capacity"),
        batching: BatchPolicy::new(args.get("max-batch"), args.get("max-delay-us")),
        slo_ms: args.get("slo-ms"),
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
    let train_seed: u64 = args.get("train-seed");
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
            let fresh_seed = train_seed.wrapping_add(1);
            println!("  model push: training the replacement at seed {fresh_seed}...");
            let fresh = TrainRun::new(
                &model,
                TrainerConfig {
                    seed: fresh_seed,
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

#[cfg(test)]
mod tests {
    use super::*;
    use recsim_rng::check::{check, Gen};

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(ToString::to_string).collect()
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS
            .iter()
            .find(|c| c.name == name)
            .expect("known command")
    }

    /// Whether `raw` is in `kind`'s range, checked apart from [`Kind::admits`].
    fn in_range(kind: Kind, raw: &str) -> bool {
        match kind {
            Kind::Switch => raw.is_empty(),
            Kind::Int(min, max) => raw.parse::<u64>().is_ok_and(|n| min <= n && n <= max),
            Kind::Float => raw
                .parse::<f32>()
                .is_ok_and(|x| x > 0.0 && x < f32::INFINITY),
            Kind::Choice(choices) => choices.contains(&raw),
            Kind::Shape => raw.split_once('x').is_some_and(|(w, l)| {
                w.parse::<usize>().is_ok_and(|w| w >= 1)
                    && l.parse::<usize>()
                        .is_ok_and(|l| (1..=MAX_LAYERS).contains(&l))
            }),
            Kind::Text(_) => !raw.is_empty(),
        }
    }

    #[test]
    fn every_row_is_well_formed() {
        for &Flag(cmds, name, kind, default, _) in FLAGS {
            if let Lit(raw) = default {
                assert!(kind.admits(raw), "--{name} default `{raw}`");
            }
            if matches!(kind, Kind::Switch) {
                assert!(matches!(default, Unset), "--{name} is a switch");
            }
            for cmd in cmds {
                command(cmd);
                let rows = flags_of(cmd).filter(|f| f.1 == name).count();
                assert_eq!(rows, 1, "`{cmd} --{name}` is declared {rows} times");
            }
        }
    }

    #[test]
    fn choices_resolve_in_the_library() {
        let choices = |cmd: &str, name: &str| match flags_of(cmd).find(|f| f.1 == name) {
            Some(&Flag(_, _, Kind::Choice(choices), ..)) => choices,
            _ => panic!("`{cmd} --{name}` is not a choice"),
        };
        for name in choices("shard", "solver") {
            assert!(solver_by_name(name).is_some(), "solver {name}");
        }
        for name in choices("serve", "policy") {
            assert!(
                CachePolicy::from_name(name).is_some(),
                "cache policy {name}"
            );
        }
        assert_eq!(
            choices("faults", "policy"),
            [&POLICY_NAMES[..], &["all"]].concat()
        );
    }

    /// Each help section lists exactly the flags its command accepts.
    #[test]
    fn help_lists_exactly_the_accepted_flags() {
        let text = help();
        for cmd in COMMANDS {
            let header = format!("\nrecsim {}", cmd.name);
            let section = text.split(&header).nth(1).expect("a section per command");
            let section = section.split("\nrecsim ").next().unwrap_or_default();
            let listed: Vec<&str> = section
                .lines()
                .filter_map(|l| l.strip_prefix("    --"))
                .map(|l| l.split(' ').next().unwrap_or_default())
                .collect();
            let accepted: Vec<&str> = flags_of(cmd.name).map(|f| f.1).collect();
            assert_eq!(listed, accepted, "recsim {}", cmd.name);
        }
    }

    #[test]
    fn defaults_fill_in_and_given_values_override() {
        let args = parse(&[]).expect("no argv is help");
        assert_eq!(args.cmd, "help");
        let args = parse(&argv(&["train"])).expect("train");
        assert_eq!(
            (args.get::<usize>("batch"), args.get::<f32>("lr")),
            (200, 0.04)
        );
        assert_eq!(args.model().num_dense(), 16);
        let args = parse(&argv(&["simulate"])).expect("simulate");
        assert_eq!(
            (args.get::<u64>("batch"), args.model().num_sparse()),
            (1600, 16)
        );
        assert_eq!(args.opt::<u32>("nodes"), None);
        let args = parse(&argv(&["shard", "--rows", "--zipf", "0.8"])).expect("shard");
        assert_eq!((args.setup(), args.get::<f64>("zipf")), ("bb", 0.8));
        assert!(args.on("rows") && !args.on("describe"));
        let args = parse(&argv(&["serve", "push", "--mlp", "8x1", "--seed", "9"])).expect("serve");
        assert_eq!((args.setup(), args.get::<u64>("seed")), ("push", 9));
        assert_eq!(args.model().bottom_mlp(), [8]);
        let args = parse(&argv(&["run", "--quick", "fig06", "table1"])).expect("run");
        assert_eq!(args.positional, ["fig06", "table1"]);
        assert_eq!(args.effort(), Effort::Quick);
        let args = parse(&argv(&["faults", "scaleout", "--model", "m3"])).expect("faults");
        assert_eq!(args.opt::<u64>("batch"), None);
        assert_eq!(args.model(), production_model(ProductionModelId::M3));
    }

    /// Every class of bad input is an error that names it.
    #[test]
    fn each_bad_input_class_names_the_input() {
        for (words, needle) in [
            (&["simulate", "--thredas", "2"][..], "--thredas"),
            (&["run", "--quick", "--thredas", "2", "table1"], "--thredas"),
            (&["train", "--examples"], "--examples"),
            (&["verify", "--detsan"], "--detsan"),
            (&["verify", "--detsan", "--quick"], "--detsan"),
            (&["shard", "bb", "extra"], "extra"),
            (&["verify", "table1"], "table1"),
            (&["prof", "automl", "fig15"], "fig15"),
            (&["prof", "--quick"], "driver"),
            (&["faults", "zion"], "zion"),
            (&["simulate", "--dense", "abc"], "--dense"),
            (&["simulate", "--platform", "tpu"], "--platform"),
            (&["simulate", "--mlp", "512"], "--mlp"),
            (&["train", "--lr", "1e-50"], "--lr"),
            (&["serve", "--duration", "0"], "--duration"),
            (&["faults", "--seed", "-1"], "--seed"),
            (
                &["verify", "--detsan", "all", "--threads", "1"],
                "--threads",
            ),
            (
                &["shard", "--rows", "--hbm-gib", "18446744073709551615"],
                "--hbm-gib",
            ),
            (&["bogus"], "bogus"),
        ] {
            let err = parse(&argv(words)).expect_err(&format!("{words:?}"));
            assert!(err.contains(needle), "{words:?}: {err}");
        }
    }

    /// A token for the argv property: a flag from the table (declared for
    /// the command or not), an unknown flag, or a value good or bad.
    fn token(g: &mut Gen) -> String {
        const VALUES: &[&str] = &[
            "1",
            "7",
            "0.5",
            "512x3",
            "0",
            "-1",
            "nan",
            "inf",
            "",
            "abc",
            "18446744073709551615",
            "1000000000000000000",
            "1e-50",
            "0x3",
            "4x0",
            "bb",
            "scaleout",
            "push",
            "m1",
            "lru",
            "summary",
            "table1",
            "-",
            "--",
        ];
        match g.range(0u32..6) {
            0 | 1 => format!("--{}", FLAGS[g.range(0..FLAGS.len())].1),
            2 => format!("--{}", g.pick(&["thredas", "help", "x", "", "quick=1"])),
            3 => g.pick(VALUES).to_string(),
            4 => match FLAGS[g.range(0..FLAGS.len())].2 {
                Kind::Choice(choices) => g.pick(choices).to_string(),
                Kind::Int(min, max) => g.range(min..=max).to_string(),
                Kind::Float => g.range(1e-9f64..1e9).to_string(),
                Kind::Shape => format!("{}x{}", g.range(0u32..600), g.range(0usize..1100)),
                Kind::Switch | Kind::Text(_) => g.string(),
            },
            _ => g.string(),
        }
    }

    /// `parse` never panics; an `Ok` holds only in-range values and valid
    /// positionals; any flag the command does not declare is an `Err`.
    /// Parsing only: no command runs, so nothing is allocated or spawned.
    #[test]
    fn parse_property_never_panics_and_admits_only_in_range_values() {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).chain(["bogus"]).collect();
        check(
            "cli_parse",
            2_000,
            |g| {
                let mut argv = vec![g.pick(&names).to_string()];
                argv.extend(g.vec(0..8, token));
                argv
            },
            |argv| {
                let parsed = parse(&argv);
                let cmd = argv[0].as_str();
                let undeclared = argv[1..]
                    .iter()
                    .filter_map(|a| a.strip_prefix("--"))
                    .any(|name| !flags_of(cmd).any(|f| f.1 == name));
                if undeclared {
                    assert!(parsed.is_err(), "accepted an undeclared flag");
                }
                let Ok(args) = parsed else {
                    return;
                };
                for (name, raw) in &args.values {
                    let f = flags_of(cmd).find(|f| f.1 == *name).expect("declared");
                    assert!(in_range(f.2, raw), "--{name} = {raw:?}");
                }
                let n = args.positional.len();
                match command(cmd).positionals {
                    Positionals::None => assert_eq!(n, 0),
                    Positionals::Setup(setups) => {
                        assert!(n == 1 && setups.contains(&args.setup()));
                    }
                    Positionals::Driver => assert_eq!(n, 1),
                    Positionals::Drivers => {}
                }
            },
        );
    }
}
