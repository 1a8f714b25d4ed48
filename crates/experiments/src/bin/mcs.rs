//! `mcs` — regenerate the tables and figures of "Scaling of Multicast
//! Trees" (SIGCOMM '99).
//!
//! ```text
//! mcs [OPTIONS] <EXPERIMENT>...
//! mcs [OPTIONS] suite [--only <id,id,...>]
//! mcs [OPTIONS] measure <edge-list-file>
//! mcs topo pack <edge-list-file> <out.mct>
//! mcs topo unpack <in.mct> <out-edge-list>
//! mcs topo verify <in.mct>
//! mcs --cache-dir DIR cache <ls|verify|gc [--dry-run]>
//! mcs serve [--port N] [--cache-dir DIR] [--workers N] [...]
//! mcs obs report <trace.jsonl> [--json] [--top N]
//! mcs obs flame <trace.jsonl>
//! mcs obs chrome <trace.jsonl>
//! mcs obs diff <base> <candidate> [--budget <file.json>]
//!
//! EXPERIMENT:  table1 | fig1 | … | fig9 | ablate-* | churn | storm | all | list
//!
//! OPTIONS:
//!   --paper          paper-scale sample counts and topology sizes
//!   --fast           reduced sizes (default)
//!   --scale <s>      spelled-out form of the above: `fast`, `paper`, or `huge`
//!                    (`huge` swaps in the million-node topology tier)
//!   --seed <u64>     root seed (default 1999)
//!   --threads <n>    worker threads, at least 1 (default: all cores)
//!   --out <dir>      also write <dir>/<id>.{json,csv,dat,svg} artefacts
//!   --metrics <file> write a JSON observability dump (spans, counters,
//!                    histograms, run metadata) after the run
//!   --trace <dir>    record a timed trace: every span occurrence with
//!                    monotonic timestamps, counter deltas attributed to
//!                    the innermost span, and scheduler lane signals,
//!                    written to <dir>/trace.jsonl (plus run-meta.json)
//!   --trace-alloc    with --trace: engage the counting allocator so
//!                    spans also carry alloc count/bytes/peak
//!   --cache-dir <dir> content-addressed result cache: unchanged figures
//!                    and curves are served from disk, bit-identical
//!   --resume         with --cache-dir: reuse partial checkpoints left by
//!                    a killed run (curves stay bit-identical)
//!   --only <ids>     with suite: run only these comma-separated ids
//!   --keep-going     with suite: retry then quarantine a panicking task
//!                    and finish the rest of the suite (exit code 2 marks
//!                    a partial run)
//!   --fail-fast      with suite: abort at the first task failure (the
//!                    default; mutually exclusive with --keep-going)
//!   --max-retries <n> with suite --keep-going: retries before quarantine
//!                    (default 1)
//!   --verbose, -v    progress lines + info-level JSONL events on stderr
//!   --quiet, -q      suppress the stdout report and all stderr events
//!
//! `MCS_LOG=<level>` (error|warn|info|debug|trace) sets the structured
//! event level independently of `--verbose`.
//!
//! `measure` runs the paper's methodology on *your* topology: it parses
//! the edge list (`u v` per line, `#` comments), extracts the largest
//! connected component, and reports Table-1-style statistics, the fitted
//! Chuang–Sirbu exponent, and the reachability classification.
//!
//! `topo` converts between text edge lists and the versioned, checksummed
//! binary topology format (`.mct`); `verify` checks a file's header and
//! payload checksums and prints its dimensions.
//!
//! `cache` inspects a `--cache-dir`: `ls` lists objects, `verify` re-checks
//! every checksum, `gc` removes corrupt objects, temp litter, and stale
//! checkpoints (`gc --dry-run` prints the would-be evictions — reason,
//! size, age, key — and deletes nothing).
//!
//! `serve` boots the measurement daemon (DESIGN.md §12): topology
//! upload + measurement queries over HTTP/1.1 + JSONL, admission
//! control, per-client quotas, single-flight coalescing on the same
//! cache keys `mcs measure --cache-dir` uses, and graceful drain.
//!
//! `obs` post-processes a recorded trace: `report` prints the per-span
//! summary (wall/self time, allocation attribution, lane utilisation;
//! `--json` emits the committable digest), `flame` emits collapsed
//! stacks for flamegraph renderers, `chrome` emits Chrome trace-event
//! JSON, and `diff` compares two runs under a wall-time budget (exit 3
//! on breach — the CI perf-regression gate).
//!
//! Observability never changes the numbers: report artefacts are
//! byte-identical whether or not `--metrics`/`--verbose`/`--trace` are
//! given, and all artefacts are written atomically (temp file + rename).
//! The trace is a sidecar: it lives in its own directory, never in
//! `--out`.
//!
//! The `suite` subcommand runs through the fault-isolated scheduler
//! (`mcast_experiments::sched`): experiments overlap up to `--threads`,
//! artefacts stay bit-identical to a sequential run, and the exit code
//! distinguishes complete (0) / partial (2) / failed (1) runs.
//! ```

use mcast_experiments::sched;
use mcast_experiments::render;
use mcast_experiments::suite;
use mcast_experiments::{RunConfig, Scale};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Counting allocator (`mcast_obs::alloc`): plain `System` until
/// `--trace-alloc` engages counting, then per-span alloc attribution.
#[global_allocator]
static ALLOC: mcast_obs::alloc::CountingAlloc = mcast_obs::alloc::CountingAlloc;

struct Args {
    cfg: RunConfig,
    out: Option<PathBuf>,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
    trace_alloc: bool,
    cache_dir: Option<PathBuf>,
    resume: bool,
    only: Option<String>,
    keep_going: bool,
    max_retries: u32,
    verbose: bool,
    quiet: bool,
    experiments: Vec<String>,
}

fn usage() -> &'static str {
    "usage: mcs [--paper|--fast|--scale fast|paper|huge] [--seed N] [--threads N] [--out DIR] [--metrics FILE] [--trace DIR [--trace-alloc]] [--cache-dir DIR] [--resume] [--verbose|--quiet] <table1|fig1..fig9|ablate-*|churn|storm|all|list>...\n       mcs [OPTIONS] suite [--only ID,ID,...] [--keep-going|--fail-fast] [--max-retries N]\n       mcs [OPTIONS] measure <edge-list-file>\n       mcs topo <pack|unpack|verify> <files...>\n       mcs --cache-dir DIR cache <ls|verify|gc [--dry-run]>\n       mcs serve [--addr H:P|--port N] [--cache-dir DIR [--resume]] [--workers N] [--queue-cap N] [--quota-rate R] [--quota-burst B] [--topo-dir DIR] [--request-log FILE] [--addr-file FILE] [--threads N] [--max-body BYTES] [-v]\n       mcs obs <report|flame|chrome> <trace.jsonl> [--json] [--top N]\n       mcs obs diff <base> <candidate> [--budget FILE]"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut cfg = RunConfig::default();
    let mut out = None;
    let mut metrics = None;
    let mut trace = None;
    let mut trace_alloc = false;
    let mut cache_dir = None;
    let mut resume = false;
    let mut only = None;
    let mut keep_going = false;
    let mut fail_fast = false;
    let mut max_retries: Option<u32> = None;
    let mut verbose = false;
    let mut quiet = false;
    let mut experiments = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--paper" => cfg.scale = Scale::Paper,
            "--fast" => cfg.scale = Scale::Fast,
            "--scale" => {
                let v = it.next().ok_or("--scale needs `fast`, `paper`, or `huge`")?;
                cfg.scale = match v.as_str() {
                    "fast" => Scale::Fast,
                    "paper" => Scale::Paper,
                    "huge" => Scale::Huge,
                    other => {
                        return Err(format!(
                            "bad scale `{other}` (want `fast`, `paper`, or `huge`)"
                        ))
                    }
                };
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                cfg.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                cfg.threads = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
                if cfg.threads == 0 {
                    return Err(
                        "--threads must be at least 1 (omit the flag to use all cores)".into(),
                    );
                }
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a directory")?;
                out = Some(PathBuf::from(v));
            }
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs a file")?;
                metrics = Some(PathBuf::from(v));
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a directory")?;
                trace = Some(PathBuf::from(v));
            }
            "--trace-alloc" => trace_alloc = true,
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a directory")?;
                cache_dir = Some(PathBuf::from(v));
            }
            "--resume" => resume = true,
            "--only" => {
                let v = it.next().ok_or("--only needs a comma-separated id list")?;
                only = Some(v.clone());
            }
            "--keep-going" => keep_going = true,
            "--fail-fast" => fail_fast = true,
            "--max-retries" => {
                let v = it.next().ok_or("--max-retries needs a value")?;
                max_retries = Some(v.parse().map_err(|_| format!("bad retry count `{v}`"))?);
            }
            "--verbose" | "-v" => verbose = true,
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => return Err(usage().to_string()),
            // `cache gc --dry-run`: the flag belongs to the cache
            // subcommand, not the run configuration.
            "--dry-run" if experiments.first().map(String::as_str) == Some("cache") => {
                experiments.push(arg.to_string());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`\n{}", usage()));
            }
            exp => experiments.push(exp.to_string()),
        }
    }
    if verbose && quiet {
        return Err("--verbose and --quiet are mutually exclusive".into());
    }
    if resume && cache_dir.is_none() {
        return Err("--resume requires --cache-dir (there is nowhere to resume from)".into());
    }
    if trace_alloc && trace.is_none() {
        return Err("--trace-alloc requires --trace (there is no trace to attribute to)".into());
    }
    let is_suite = experiments.first().map(String::as_str) == Some("suite");
    if only.is_some() && !is_suite {
        return Err("--only is only valid with the `suite` subcommand".into());
    }
    if keep_going && fail_fast {
        return Err("--keep-going and --fail-fast are mutually exclusive".into());
    }
    if (keep_going || fail_fast || max_retries.is_some()) && !is_suite {
        return Err(
            "--keep-going/--fail-fast/--max-retries are only valid with the `suite` subcommand"
                .into(),
        );
    }
    if experiments.is_empty() {
        return Err(usage().to_string());
    }
    if experiments.first().map(String::as_str) == Some("measure") && experiments.len() > 2 {
        return Err(format!(
            "measure takes exactly one edge-list file, got extra arguments: {}\n{}",
            experiments[2..].join(" "),
            usage()
        ));
    }
    Ok(Args {
        cfg,
        out,
        metrics,
        trace,
        trace_alloc,
        cache_dir,
        resume,
        only,
        keep_going,
        max_retries: max_retries.unwrap_or(1),
        verbose,
        quiet,
        experiments,
    })
}

/// Write one artefact file atomically (temp file + rename: a killed run
/// never leaves a truncated artefact), wrapping any error with the
/// failing path.
fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    mcast_store::write_atomic_str(path, contents)
        .map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}

fn write_artefacts(dir: &Path, report: &mcast_experiments::Report) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    write_file(
        &dir.join(format!("{}.json", report.id)),
        &render::report_json(report),
    )?;
    for d in &report.datasets {
        write_file(&dir.join(format!("{}.csv", d.id)), &render::dataset_csv(d))?;
        write_file(
            &dir.join(format!("{}.dat", d.id)),
            &render::dataset_gnuplot(d),
        )?;
        write_file(
            &dir.join(format!("{}.svg", d.id)),
            &mcast_experiments::svg::dataset_svg(d),
        )?;
    }
    Ok(())
}

/// Configure the observability layer from the parsed flags.
fn init_obs(args: &Args) {
    mcast_obs::events::init_from_env();
    if args.quiet {
        mcast_obs::set_level(mcast_obs::Level::Off);
        mcast_obs::progress::set_progress(false);
    } else if args.verbose {
        mcast_obs::progress::set_progress(true);
        if mcast_obs::events::level() == mcast_obs::Level::Off {
            mcast_obs::set_level(mcast_obs::Level::Info);
        }
    }
    if args.verbose || args.metrics.is_some() || args.trace.is_some() {
        mcast_obs::set_enabled(true);
    }
    if args.trace.is_some() {
        mcast_obs::trace::start();
        if args.trace_alloc {
            mcast_obs::alloc::set_counting(true);
        }
    }
}

/// Write the `--metrics` dump: run metadata plus the full registry.
fn write_metrics(
    path: &Path,
    cfg: &RunConfig,
    experiments: &[String],
    started: Instant,
) -> Result<(), String> {
    use mcast_obs::json::Value;
    let duration_ms = started.elapsed().as_secs_f64() * 1000.0;
    let samples = mcast_obs::counter("tree.samples").get();
    let dump = mcast_obs::dump_json(&[
        ("seed", Value::U64(cfg.seed)),
        ("scale", Value::Str(cfg.scale_name().to_string())),
        ("threads", Value::U64(cfg.resolved_threads() as u64)),
        ("duration_ms", Value::F64(duration_ms)),
        ("samples", Value::U64(samples)),
        ("experiments", Value::Str(experiments.join(","))),
    ]);
    write_file(path, &dump)
}

/// Render the `run-meta.json` sidecar. Reports deliberately keep
/// `duration: null` so artefacts stay byte-deterministic; the real wall
/// clock, thread count, and trace location live here instead.
fn run_meta_json(args: &Args, argv: &[String], started: Instant, exit: u8) -> String {
    use mcast_obs::json::{write_str, Value};
    use std::fmt::Write as _;
    let mut out = String::with_capacity(256);
    out.push_str("{\n  \"version\": 1,\n  \"cmd\": ");
    write_str(&mut out, &format!("mcs {}", argv.join(" ")));
    let _ = write!(
        out,
        ",\n  \"seed\": {},\n  \"scale\": \"{}\",\n  \"threads\": {},\n  \"duration_ms\": ",
        args.cfg.seed,
        args.cfg.scale_name(),
        args.cfg.resolved_threads()
    );
    // Millisecond precision is plenty for a run-meta stamp; keeping the
    // literal short also keeps the file pleasant to read.
    let ms = (started.elapsed().as_secs_f64() * 1000.0 * 1000.0).round() / 1000.0;
    mcast_obs::json::write_f64(&mut out, ms);
    let _ = write!(out, ",\n  \"exit\": {exit},\n  \"trace\": ");
    match &args.trace {
        Some(dir) => Value::Str(dir.join("trace.jsonl").display().to_string()).write(&mut out),
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\n  \"alloc_counting\": {}\n}}\n", args.trace_alloc);
    out
}

/// Stop the trace recorder (if one ran) and write the sidecars:
/// `trace.jsonl` + `run-meta.json` in the trace directory, and a
/// `run-meta.json` at the cache root when a cache is configured. Never
/// touches `--out` — artefact directories stay byte-identical with
/// tracing on or off. Failures are reported but do not change the run's
/// exit code: telemetry must not fail the science.
fn finalize_run(args: &Args, argv: &[String], started: Instant, exit: u8) {
    let meta = run_meta_json(args, argv, started, exit);
    if let Some(dir) = &args.trace {
        let write = || -> Result<(), String> {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
            if let Some(data) = mcast_obs::trace::stop() {
                use mcast_obs::json::Value;
                let jsonl = data.write_jsonl(&[
                    ("cmd", Value::Str(format!("mcs {}", argv.join(" ")))),
                    ("seed", Value::U64(args.cfg.seed)),
                    ("scale", Value::Str(args.cfg.scale_name().to_string())),
                    ("threads", Value::U64(args.cfg.resolved_threads() as u64)),
                    ("alloc_counting", Value::Bool(args.trace_alloc)),
                ]);
                write_file(&dir.join("trace.jsonl"), &jsonl)?;
            }
            write_file(&dir.join("run-meta.json"), &meta)
        };
        if let Err(e) = write() {
            eprintln!("failed to write trace sidecars: {e}");
        }
    }
    if let Some(cache) = &args.cache_dir {
        // The cache root is safe ground: gc only touches objects/,
        // temp litter, and stale checkpoints.
        if cache.is_dir() {
            if let Err(e) = write_file(&cache.join("run-meta.json"), &meta) {
                eprintln!("failed to write cache run-meta: {e}");
            }
        }
    }
}

/// Load either sidecar format as a summary: a `trace.jsonl` (detected
/// by its leading event line) is summarised; anything else must be a
/// summary JSON as written by `mcs obs report --json`.
fn read_summary(path: &str) -> Result<mcast_obs::export::TraceSummary, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    if text.trim_start().starts_with("{\"ev\":") {
        let trace = mcast_obs::export::parse_trace(&text).map_err(|e| format!("`{path}`: {e}"))?;
        Ok(mcast_obs::export::summarize(&trace))
    } else {
        mcast_obs::export::TraceSummary::from_json(&text).map_err(|e| format!("`{path}`: {e}"))
    }
}

fn read_trace(path: &str) -> Result<mcast_obs::export::ParsedTrace, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    mcast_obs::export::parse_trace(&text).map_err(|e| format!("`{path}`: {e}"))
}

/// `mcs obs report|flame|chrome|diff`: post-process recorded traces.
/// Runs before `parse_args` (its flags are its own); exit code 3 marks
/// a budget breach in `diff`.
fn run_obs(cmd: &[String]) -> u8 {
    use mcast_obs::export;
    let fail = |e: String| -> u8 {
        eprintln!("{e}");
        1
    };
    let (op, rest) = match cmd.split_first() {
        Some((op, rest)) => (op.as_str(), rest),
        None => return fail(format!("obs takes report, flame, chrome, or diff\n{}", usage())),
    };
    match op {
        "report" => {
            let mut path = None;
            let mut json = false;
            let mut top = 20usize;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--json" => json = true,
                    "--top" => {
                        let v = match it.next() {
                            Some(v) => v,
                            None => return fail("--top needs a value".into()),
                        };
                        top = match v.parse() {
                            Ok(n) => n,
                            Err(_) => return fail(format!("bad --top value `{v}`")),
                        };
                    }
                    p if path.is_none() && !p.starts_with('-') => path = Some(p.to_string()),
                    other => return fail(format!("obs report: unexpected `{other}`")),
                }
            }
            let Some(path) = path else {
                return fail(format!("obs report needs a trace file\n{}", usage()));
            };
            match read_summary(&path) {
                Ok(summary) => {
                    if json {
                        print!("{}", summary.to_json());
                    } else {
                        print!("{}", export::report_text(&summary, top));
                    }
                    0
                }
                Err(e) => fail(e),
            }
        }
        "flame" | "chrome" => {
            let [path] = rest else {
                return fail(format!("obs {op} takes exactly one trace.jsonl\n{}", usage()));
            };
            match read_trace(path) {
                Ok(trace) => {
                    if op == "flame" {
                        print!("{}", export::folded_stacks(&trace));
                    } else {
                        print!("{}", export::chrome_trace(&trace));
                    }
                    0
                }
                Err(e) => fail(e),
            }
        }
        "diff" => {
            let mut paths = Vec::new();
            let mut budget_path = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--budget" => match it.next() {
                        Some(v) => budget_path = Some(v.to_string()),
                        None => return fail("--budget needs a file".into()),
                    },
                    p if !p.starts_with('-') => paths.push(p.to_string()),
                    other => return fail(format!("obs diff: unexpected `{other}`")),
                }
            }
            let [base, cand] = paths.as_slice() else {
                return fail(format!("obs diff takes <base> <candidate>\n{}", usage()));
            };
            let budget = match &budget_path {
                Some(p) => {
                    let text = match std::fs::read_to_string(p) {
                        Ok(t) => t,
                        Err(e) => return fail(format!("cannot read `{p}`: {e}")),
                    };
                    match export::Budget::from_json(&text) {
                        Ok(b) => b,
                        Err(e) => return fail(format!("`{p}`: {e}")),
                    }
                }
                None => export::Budget::default(),
            };
            let (a, b) = match (read_summary(base), read_summary(cand)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => return fail(e),
            };
            let report = export::diff(&a, &b, &budget);
            print!("{}", export::diff_text(&report, &budget));
            if report.breaches > 0 {
                3
            } else {
                0
            }
        }
        other => fail(format!("unknown obs subcommand `{other}`\n{}", usage())),
    }
}

/// `mcs topo pack|unpack|verify`: convert between text edge lists and
/// the binary topology format, or check a binary file's integrity.
fn run_topo(cmd: &[String]) -> Result<(), String> {
    let fail = |e: &dyn std::fmt::Display, path: &str| format!("`{path}`: {e}");
    match cmd {
        [op, input, output] if op == "pack" => {
            let text = std::fs::read_to_string(input).map_err(|e| fail(&e, input))?;
            let graph =
                mcast_topology::io::parse_edge_list(&text).map_err(|e| fail(&e, input))?;
            mcast_store::save_graph(Path::new(output), &graph)
                .map_err(|e| fail(&e, output))?;
            println!(
                "packed {} nodes / {} edges -> {output}",
                graph.node_count(),
                graph.edge_count()
            );
            Ok(())
        }
        [op, input, output] if op == "unpack" => {
            let graph = mcast_store::load_graph(Path::new(input)).map_err(|e| fail(&e, input))?;
            write_file(
                Path::new(output),
                &mcast_topology::io::write_edge_list(&graph),
            )?;
            println!(
                "unpacked {} nodes / {} edges -> {output}",
                graph.node_count(),
                graph.edge_count()
            );
            Ok(())
        }
        [op, input] if op == "verify" => {
            let data = std::fs::read(input).map_err(|e| fail(&e, input))?;
            let header = mcast_store::format::decode_header(&data).map_err(|e| fail(&e, input))?;
            mcast_store::decode_graph(&data).map_err(|e| fail(&e, input))?;
            println!(
                "{input}: OK (format v{}, {} nodes, {} edges, payload {} bytes, sha256 {})",
                header.version, header.nodes, header.edges, header.payload_len, header.payload_sha
            );
            Ok(())
        }
        _ => Err(format!(
            "topo takes `pack <edge-list> <out.mct>`, `unpack <in.mct> <out-edge-list>`, or `verify <in.mct>`\n{}",
            usage()
        )),
    }
}

/// `mcs cache ls|verify|gc` against the `--cache-dir` store.
fn run_cache(cmd: &[String], cache_dir: Option<&Path>) -> Result<(), String> {
    let dir = cache_dir.ok_or("cache commands need --cache-dir")?;
    let cache =
        mcast_store::DiskCache::open(dir).map_err(|e| format!("cannot open cache: {e}"))?;
    match cmd {
        [op] if op == "ls" => {
            let entries = cache.ls();
            for e in &entries {
                println!("{} {:>7} {:>12} B", e.key, e.kind, e.payload_len);
            }
            println!("{} object(s)", entries.len());
            // The run-meta sidecar (if a run stamped one) carries the
            // timing that reports deliberately omit.
            if let Ok(text) = std::fs::read_to_string(dir.join("run-meta.json")) {
                if let Ok(meta) = mcast_obs::json::parse(&text) {
                    let grab_str =
                        |k: &str| meta.get(k).and_then(|v| v.as_str().map(str::to_string));
                    let cmd = grab_str("cmd").unwrap_or_else(|| "?".into());
                    let duration_ms =
                        meta.get("duration_ms").and_then(|v| v.as_f64()).unwrap_or(0.0);
                    let threads =
                        meta.get("threads").and_then(|v| v.as_u64()).unwrap_or(0);
                    println!(
                        "last run: {cmd} · {duration_ms:.0} ms · {threads} thread(s){}",
                        match grab_str("trace") {
                            Some(t) => format!(" · trace {t}"),
                            None => String::new(),
                        }
                    );
                }
            }
            Ok(())
        }
        [op] if op == "verify" => {
            let report = cache.verify_all();
            println!("{} ok, {} corrupt", report.ok, report.corrupt);
            if report.corrupt > 0 {
                Err("cache verification failed (run `mcs cache gc` to drop corrupt objects)".into())
            } else {
                Ok(())
            }
        }
        [op] if op == "gc" => {
            let removed = cache.gc();
            println!("removed {removed} file(s)");
            Ok(())
        }
        [op, flag] if op == "gc" && flag == "--dry-run" => {
            // Same sweep as `gc`, deleting nothing: one line per
            // would-be eviction (reason, size, age, key/path).
            let plan = cache.gc_plan();
            for c in &plan {
                println!(
                    "{:<16} {:>10} B  age {:>8}  {}",
                    c.reason.name(),
                    c.bytes,
                    match c.age_secs {
                        Some(a) => format!("{a}s"),
                        None => "?".to_string(),
                    },
                    match &c.key {
                        Some(k) => k.clone(),
                        None => c.path.display().to_string(),
                    }
                );
            }
            println!("{} file(s) would be removed", plan.len());
            Ok(())
        }
        _ => Err(format!(
            "cache takes one of: ls, verify, gc [--dry-run]\n{}",
            usage()
        )),
    }
}

/// `mcs serve`: boot the measurement daemon (protocol/admission/quotas
/// from `mcast-serve`, measurement + cache from this crate's scheduler).
/// Runs before `parse_args` (its flags are its own).
fn run_serve(cmd: &[String]) -> u8 {
    match serve_main(cmd) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn serve_main(cmd: &[String]) -> Result<u8, String> {
    fn value<'a>(cmd: &'a [String], i: &mut usize, name: &str) -> Result<&'a str, String> {
        *i += 1;
        cmd.get(*i)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
    }
    fn num<T: std::str::FromStr>(v: &str, name: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("{name}: invalid value `{v}`"))
    }
    let mut config = mcast_serve::ServeConfig::default();
    let mut cache_dir: Option<PathBuf> = None;
    let mut resume = false;
    let mut addr_file: Option<PathBuf> = None;
    let mut verbose = false;
    let mut i = 0;
    while i < cmd.len() {
        match cmd[i].as_str() {
            "--addr" => config.addr = value(cmd, &mut i, "--addr")?.to_string(),
            "--port" => {
                config.addr = format!("127.0.0.1:{}", num::<u16>(value(cmd, &mut i, "--port")?, "--port")?)
            }
            "--workers" => config.workers = num(value(cmd, &mut i, "--workers")?, "--workers")?,
            "--queue-cap" => {
                config.queue_cap = num(value(cmd, &mut i, "--queue-cap")?, "--queue-cap")?
            }
            "--quota-rate" => {
                config.quota.rate_per_sec =
                    num(value(cmd, &mut i, "--quota-rate")?, "--quota-rate")?
            }
            "--quota-burst" => {
                config.quota.burst = num(value(cmd, &mut i, "--quota-burst")?, "--quota-burst")?
            }
            "--max-body" => config.max_body = num(value(cmd, &mut i, "--max-body")?, "--max-body")?,
            "--threads" => config.threads = num(value(cmd, &mut i, "--threads")?, "--threads")?,
            "--topo-dir" => config.topo_dir = Some(PathBuf::from(value(cmd, &mut i, "--topo-dir")?)),
            "--request-log" => {
                config.request_log = Some(PathBuf::from(value(cmd, &mut i, "--request-log")?))
            }
            "--cache-dir" => cache_dir = Some(PathBuf::from(value(cmd, &mut i, "--cache-dir")?)),
            "--resume" => resume = true,
            "--addr-file" => addr_file = Some(PathBuf::from(value(cmd, &mut i, "--addr-file")?)),
            "--verbose" | "-v" => verbose = true,
            other => return Err(format!("serve: unknown argument `{other}`\n{}", usage())),
        }
        i += 1;
    }
    if resume && cache_dir.is_none() {
        return Err("serve: --resume needs --cache-dir".to_string());
    }

    // Counters drive `/v1/stats` (and the CI hit-rate gate), so
    // observability is always on in serve mode; it never changes the
    // measured numbers.
    mcast_obs::events::init_from_env();
    mcast_obs::set_enabled(true);
    if verbose && mcast_obs::events::level() == mcast_obs::Level::Off {
        mcast_obs::set_level(mcast_obs::Level::Info);
    }

    if let Some(dir) = &cache_dir {
        mcast_store::configure(dir, resume)
            .map_err(|e| format!("cannot open cache dir `{}`: {e}", dir.display()))?;
    } else {
        eprintln!("mcs serve: no --cache-dir; results will not persist across restarts");
    }

    let backend = std::sync::Arc::new(mcast_experiments::service::ServeBackend::new(
        config.threads,
    ));
    let handle = mcast_serve::serve(config, backend)
        .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = handle.addr();
    // The listening line is the startup handshake: tests and scripts
    // bind port 0 and scrape the resolved address from stdout (or the
    // `--addr-file`, which is written atomically for poll-safety).
    println!("mcs serve: listening on http://{addr}");
    {
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }
    if let Some(path) = &addr_file {
        mcast_store::write_atomic_str(path, &format!("{addr}\n"))
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    }
    // Serve until `/v1/admin/shutdown` drains us; every in-flight
    // request finishes (and its groups are checkpointed) before join
    // returns.
    handle.join();
    println!("mcs serve: drained and stopped");
    Ok(0)
}

/// Drive the resolved ids through the fault-isolated suite scheduler,
/// print reports (request order) plus a task summary, and map the run
/// status to the exit code: complete → 0, partial → 2, failed → 1.
fn run_scheduled(args: &Args, ids: &[String], started: Instant) -> u8 {
    let policy = sched::SchedPolicy {
        keep_going: args.keep_going,
        max_retries: args.max_retries,
    };
    let run = sched::run_suite(ids, &args.cfg, &policy);

    for report in &run.reports {
        let _render_span = mcast_obs::span_at(format!("{}/render", report.id));
        if !args.quiet {
            print!("{}", render::report_ascii(report));
            println!();
        }
        if let Some(dir) = &args.out {
            if let Err(e) = write_artefacts(dir, report) {
                eprintln!("failed to write artefacts for {}: {e}", report.id);
                return 1;
            }
        }
    }

    let failed: Vec<_> = run.failures().collect();
    if !args.quiet {
        let ok = run
            .outcomes
            .iter()
            .filter(|o| o.status == sched::TaskStatus::Ok)
            .count();
        let skipped = run
            .outcomes
            .iter()
            .filter(|o| o.status == sched::TaskStatus::Skipped)
            .count();
        println!(
            "suite summary ({}): {} task(s): {} ok, {} failed, {} skipped",
            match run.status {
                sched::SuiteStatus::Complete => "complete",
                sched::SuiteStatus::Partial => "partial",
                sched::SuiteStatus::Failed => "failed",
            },
            run.outcomes.len(),
            ok,
            failed.len(),
            skipped
        );
        println!("  {:<12} {:>8}  task", "status", "attempts");
        for o in &run.outcomes {
            match &o.failure {
                Some(f) => println!(
                    "  {:<12} {:>8}  {} [{}]: {}",
                    o.status.as_str(),
                    o.attempts,
                    o.label,
                    o.experiment,
                    f.payload
                ),
                None => println!(
                    "  {:<12} {:>8}  {}",
                    o.status.as_str(),
                    o.attempts,
                    o.label
                ),
            }
        }
    }
    // Failures also go to stderr so `--quiet` runs still say what broke
    // and where (experiment + source group).
    for o in &failed {
        let f = o.failure.as_ref().expect("failed outcomes carry context");
        eprintln!(
            "{}: task {} (experiment {}) after {} attempt(s): {}",
            o.status.as_str(),
            o.label,
            o.experiment,
            o.attempts,
            f.payload
        );
        for g in &f.groups {
            eprintln!(
                "  source group {} (node {}, source indices {:?}): {}",
                g.group_index, g.source, g.source_indices, g.payload
            );
        }
    }

    if let Some(mpath) = &args.metrics {
        if let Err(e) = write_metrics(mpath, &args.cfg, ids, started) {
            eprintln!("failed to write metrics: {e}");
            return 1;
        }
    }
    match run.status {
        sched::SuiteStatus::Complete => 0,
        sched::SuiteStatus::Partial => 2,
        sched::SuiteStatus::Failed => 1,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `obs` is a pure post-processor with its own flag grammar; handle
    // it before parse_args (which rejects unknown `-` options).
    if argv.first().map(String::as_str) == Some("obs") {
        return ExitCode::from(run_obs(&argv[1..]));
    }
    // Likewise `serve`: the daemon owns its flag grammar and its own
    // lifecycle (per-request run-meta sidecars instead of the one-shot
    // `finalize_run` below, which assumes a single run per process).
    if argv.first().map(String::as_str) == Some("serve") {
        return ExitCode::from(run_serve(&argv[1..]));
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    init_obs(&args);
    let started = Instant::now();
    let code = run(&args, started);
    // One choke point for the trace/run-meta sidecars: every exit path
    // above funnels through here, so a partial or failed run still gets
    // its spans flushed (the fault drill relies on this).
    finalize_run(&args, &argv, started, code);
    ExitCode::from(code)
}

/// The measuring body of `main`; returns the process exit code.
fn run(args: &Args, started: Instant) -> u8 {
    // Offline subcommands that never measure anything.
    match args.experiments.first().map(String::as_str) {
        Some("topo") => {
            return match run_topo(&args.experiments[1..]) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("{e}");
                    1
                }
            };
        }
        Some("cache") => {
            return match run_cache(&args.experiments[1..], args.cache_dir.as_deref()) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("{e}");
                    1
                }
            };
        }
        _ => {}
    }

    if let Some(dir) = &args.cache_dir {
        if let Err(e) = mcast_store::configure(dir, args.resume) {
            eprintln!("cannot open cache dir `{}`: {e}", dir.display());
            return 1;
        }
    }

    // `measure <file>` consumes the following positional argument.
    if args.experiments.first().map(String::as_str) == Some("measure") {
        let Some(path) = args.experiments.get(1) else {
            eprintln!("measure needs an edge-list file\n{}", usage());
            return 1;
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read `{path}`: {e}");
                return 1;
            }
        };
        match mcast_experiments::measure_cli::measure_text(path, &text, &args.cfg) {
            Ok(report) => {
                if !args.quiet {
                    print!("{}", render::report_ascii(&report));
                }
                if let Some(dir) = &args.out {
                    if let Err(e) = write_artefacts(dir, &report) {
                        eprintln!("failed to write artefacts: {e}");
                        return 1;
                    }
                }
                if let Some(mpath) = &args.metrics {
                    if let Err(e) = write_metrics(mpath, &args.cfg, &args.experiments, started) {
                        eprintln!("failed to write metrics: {e}");
                        return 1;
                    }
                }
                return 0;
            }
            Err(e) => {
                eprintln!("cannot measure `{path}`: {e}");
                return 1;
            }
        }
    }

    // Expand `suite [--only ...]` / `all` / handle `list`.
    let mut requested: Vec<String> = Vec::new();
    for e in &args.experiments {
        match e.as_str() {
            "list" => {
                for id in suite::EXPERIMENT_IDS {
                    println!("{id:8} {}", suite::describe(id).expect("described"));
                }
                if args.experiments.len() == 1 {
                    return 0;
                }
            }
            "suite" => match &args.only {
                Some(list) => requested.extend(
                    list.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from),
                ),
                None => requested.push("all".to_string()),
            },
            other => requested.push(other.to_string()),
        }
    }
    let ids = match suite::resolve_ids(&requested) {
        Ok(ids) => ids,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };

    // `suite` goes through the fault-isolated scheduler; plain experiment
    // lists keep the simple sequential loop.
    if args.experiments.iter().any(|e| e == "suite") {
        return run_scheduled(args, &ids, started);
    }

    for id in &ids {
        mcast_obs::info!("mcs", "running experiment `{id}`");
        let Some(report) = suite::run(id, &args.cfg) else {
            eprintln!("unknown experiment `{id}`\n{}", usage());
            return 1;
        };
        let _render_span = mcast_obs::span_at(format!("{id}/render"));
        if !args.quiet {
            print!("{}", render::report_ascii(&report));
            println!();
        }
        if let Some(dir) = &args.out {
            if let Err(e) = write_artefacts(dir, &report) {
                eprintln!("failed to write artefacts for {id}: {e}");
                return 1;
            }
        }
    }

    if let Some(mpath) = &args.metrics {
        if let Err(e) = write_metrics(mpath, &args.cfg, &ids, started) {
            eprintln!("failed to write metrics: {e}");
            return 1;
        }
    }
    0
}
