//! `hetgc-perfbench`: the repository benchmark. One process runs one
//! workload for a given time and prints every metric by name and unit,
//! ending with one JSON line:
//!
//! ```text
//! hetgc-perfbench --workload <sim-b16|threaded-het4|socket-wide-int8>
//!                 --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` alternates untraced and traced repetitions and reports the
//! per-layer metrics from the traced ones (plus the tracing overhead),
//! writing the spans and the flight recorder as Chrome traces to
//! `--out`. Both check every repetition against a single-worker
//! full-batch reference run.
//!
//! `hetgc-perfbench worker <addr>` is a socket worker process (spawned
//! by the socket workload itself).

mod alloc;
mod report;
mod sys;
mod trace;
mod workload;
mod wrap;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{median, percentile, tail_percentile, Outcome, END_TO_END, PER_LAYER};
use workload::{Inputs, Kind, Reference, Rep};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: hetgc-perfbench --workload <sim-b16|threaded-het4|socket-wide-int8> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--out" => {
                flags.insert(flag, value)
            }
            other => return Err(format!("unknown flag {other}")),
        };
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let kind = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        kind: Kind::parse(kind).ok_or_else(|| format!("unknown workload {kind}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        out: PathBuf::from(flags.get("--out").copied().unwrap_or("perfbench/out")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        let Some(addr) = args.get(1) else {
            eprintln!("usage: hetgc-perfbench worker <master-addr>");
            return ExitCode::FAILURE;
        };
        return match hetgc_net::run_worker(addr.as_str()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("hetgc-perfbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hetgc-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => match outcome.to_json() {
            Ok(line) => {
                println!("{line}");
                if outcome.correct {
                    ExitCode::SUCCESS
                } else {
                    eprintln!("hetgc-perfbench: correctness check failed");
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("hetgc-perfbench: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("hetgc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Per-repetition correctness against the reference.
struct Check {
    param_err: f64,
    loss_gap: f64,
    ok: bool,
    why: String,
}

fn check(rep: &Rep, inp: &Inputs, reference: &Reference) -> Check {
    let (param_tol, loss_tol) = inp.tolerance;
    let mut check = Check {
        param_err: f64::NAN,
        loss_gap: f64::NAN,
        ok: false,
        why: String::new(),
    };
    if let Some(e) = &rep.error {
        check.why = format!("engine error: {e}");
        return check;
    }
    if rep.params.len() != reference.params.len() {
        check.why = "no final parameters".into();
        return check;
    }
    let diff: f64 = rep
        .params
        .iter()
        .zip(&reference.params)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    let norm: f64 = reference.params.iter().map(|x| x * x).sum::<f64>().sqrt();
    check.param_err = diff / norm;
    check.loss_gap = (rep.final_loss - reference.final_loss).abs() / reference.final_loss;
    check.ok = rep.failed == 0
        && check.param_err <= param_tol
        && check.loss_gap <= loss_tol
        && rep.final_loss.is_finite()
        && rep.final_loss > 0.0
        && rep.final_loss < rep.previous_loss;
    if !check.ok {
        check.why = format!(
            "final parameters {:.3e} from the reference (tolerance {param_tol:.0e}), \
             loss gap {:.3e} (tolerance {loss_tol:.0e}), final loss {} after {}, failed rounds {}",
            check.param_err, check.loss_gap, rep.final_loss, rep.previous_loss, rep.failed
        );
    }
    check
}

fn run(args: &Args) -> Result<Outcome, String> {
    let host = sys::Host::detect();
    println!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\" commit={}",
        host.nproc, host.cpu_model, host.rustc, host.commit
    );
    let inp = Inputs::generate(args.kind, args.seed)?;
    println!(
        "workload: {} seed={} d={} n={} rounds/rep={} lr={} trace={}",
        args.kind.name(),
        args.seed,
        workload::num_params(args.kind),
        inp.data.len(),
        inp.rounds,
        inp.lr,
        u8::from(args.trace)
    );
    let reference = workload::reference(&inp);
    let reference_ok = reference.final_loss.is_finite()
        && reference.final_loss > 0.0
        && reference.final_loss < reference.previous_loss;
    println!(
        "reference: single worker, full batch: final loss {} (previous round {}){}",
        reference.final_loss,
        reference.previous_loss,
        if reference_ok {
            ""
        } else {
            " -- NOT positive and falling: the check has no teeth"
        }
    );
    let probes = if args.trace {
        let solve_ms = workload::plan_solve_probe(&inp).map_err(|e| e.to_string())?;
        let codec_ns = match args.kind {
            Kind::SocketWideInt8 => {
                workload::codec_probe(workload::num_params(args.kind)).map_err(|e| e.to_string())?
            }
            _ => 0.0,
        };
        Some((solve_ms, codec_ns))
    } else {
        None
    };

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let (min_intervals, max_intervals) = inp.intervals;
    let min_reps = min_intervals.div_ceil(inp.rounds);
    let max_reps = max_intervals / inp.rounds;
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        let rep = workload::run_rep(&inp, traced);
        let failed = rep.error.is_some();
        reps.push(rep);
        let n = reps.len();
        let enough = n >= min_reps && (!args.trace || n.is_multiple_of(2));
        if failed || n >= max_reps || (enough && started.elapsed() >= budget) {
            break;
        }
    }

    let mut correct = reference_ok;
    let mut checks = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        let c = check(rep, &inp, &reference);
        println!(
            "repetition {i}{}: set-up {:.6} s, {} rounds in {:.3} s, parameter distance {:.3e}, \
             loss gap {:.3e}",
            if rep.traced { " (traced)" } else { "" },
            rep.setup_s,
            rep.completed,
            rep.loop_s,
            c.param_err,
            c.loss_gap
        );
        if !c.ok {
            println!("repetition {i}: INCORRECT: {}", c.why);
            correct = false;
        }
        checks.push(c);
    }
    let worst = checks.iter().map(|c| c.param_err).fold(0.0, f64::max);
    println!(
        "correctness: {} repetitions, worst relative parameter distance to the reference {:.3e} \
         (tolerance {:.0e}), loss gap {:.3e} (tolerance {:.0e})",
        reps.len(),
        worst,
        inp.tolerance.0,
        checks.iter().map(|c| c.loss_gap).fold(0.0, f64::max),
        inp.tolerance.1
    );
    if let Some(target) = inp.throttle_target_s() {
        let busy: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.tally.on_time_busy_s.iter().copied())
            .collect();
        if !busy.is_empty() {
            let m = median(&busy);
            let binding = m <= 1.25 * target;
            println!(
                "throttle: target {:.2} ms per worker iteration, median reported {:.2} ms -- {}",
                target * 1e3,
                m * 1e3,
                if binding {
                    "the throttle sets the round time"
                } else {
                    "NOT binding: worker compute exceeds the throttle (core contention)"
                }
            );
        }
    }

    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let metrics = if args.trace {
        let (solve_ms, codec_ns) = probes.expect("probes run in trace mode");
        per_layer(
            args.kind, &reps, &checks, solve_ms, codec_ns, attempted, failed,
        )
    } else {
        end_to_end(&reps)?
    };
    let outcome = Outcome {
        correct,
        attempted,
        failed,
        metrics,
    };
    write_outputs(args, &host, &reps, &outcome)?;
    Ok(outcome)
}

fn end_to_end(reps: &[Rep]) -> Result<Vec<(String, f64, String)>, String> {
    // Set-up and rates are medians over repetitions: a burst of host
    // contention slows one repetition, not the run. Each repetition sets
    // its engine up once, after the previous one was torn down.
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<f64>>());
    let intervals: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.intervals_ms.iter().copied())
        .collect();
    let tail = tail_percentile(intervals.len()).ok_or_else(|| {
        format!(
            "only {} round intervals: too few for a tail",
            intervals.len()
        )
    })?;
    let values = [
        per_rep(&|r| r.setup_s),
        per_rep(&|r| r.completed as f64 / r.loop_s),
        median(&intervals),
        percentile(&intervals, tail),
        per_rep(&|r| r.cpu_s * 1e3 / r.completed as f64),
        sys::peak_rss_mb()?,
    ];
    println!(
        "round_ms_tail: p{tail} of {} round intervals over {} repetitions",
        intervals.len(),
        reps.len()
    );
    Ok(named(END_TO_END, &values))
}

fn named(specs: &[report::Spec], values: &[f64]) -> Vec<(String, f64, String)> {
    assert_eq!(specs.len(), values.len(), "one value per metric");
    specs
        .iter()
        .zip(values)
        .map(|(&(name, unit), &v)| (name.to_owned(), v, unit.to_owned()))
        .collect()
}

fn per_layer(
    kind: Kind,
    reps: &[Rep],
    checks: &[Check],
    solve_ms: f64,
    codec_ns: f64,
    attempted: u64,
    failed: u64,
) -> Vec<(String, f64, String)> {
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let rounds = |set: &[&Rep]| set.iter().map(|r| r.completed).sum::<u64>().max(1) as f64;
    let n = rounds(&traced);
    let reps_n = traced.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Rep) -> f64| traced.iter().map(|r| f(r)).sum::<f64>();
    let rate = |set: &[&Rep]| rounds(set) / set.iter().map(|r| r.loop_s).sum::<f64>();

    let mut spans: BTreeMap<&'static str, trace::Totals> = BTreeMap::new();
    let mut phases: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut master_gradient_ns = 0u64;
    for r in &traced {
        for (name, t) in trace::totals(&r.spans) {
            let e = spans.entry(name).or_default();
            e.count += t.count;
            e.total_ns += t.total_ns;
            e.self_ns += t.self_ns;
        }
        for (name, ns) in &r.phases {
            *phases.entry(name).or_default() += ns;
        }
        // Gradients the master computes inside its encode phase.
        let master_tid = r
            .spans
            .iter()
            .find(|s| s.name == "core.round")
            .map(|s| s.tid);
        master_gradient_ns += r
            .spans
            .iter()
            .filter(|s| s.name == "ml.gradient" && Some(s.tid) == master_tid)
            .map(|s| s.dur_ns())
            .sum::<u64>();
    }
    let span_ms = |name: &str| spans.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6) / n;
    let phase_ms = |name: &str| phases.get(name).copied().unwrap_or(0) as f64 / 1e6 / n;
    let sim = kind == Kind::SimB16;
    let threaded = kind == Kind::ThreadedHet4;
    let socket = kind == Kind::SocketWideInt8;
    let only = |on: bool, v: f64| if on { v } else { 0.0 };

    let dispatch = phase_ms("dispatch");
    let engine_ms = span_ms("core.engine_round");
    let t = |f: &dyn Fn(&wrap::EngineTally) -> f64| sum(&|r: &Rep| f(&r.tally));
    let hits = t(&|t| t.plan_hits as f64);
    let misses = t(&|t| t.plan_misses as f64);
    let solves = t(&|t| t.plan_solves as f64);
    let arrived = t(&|t| t.arrived_replies as f64);
    let recode = spans.get("core.recode").copied().unwrap_or_default();
    let all_rounds: u64 = reps.iter().map(|r| r.completed).sum();

    let values = [
        engine_ms,
        spans
            .get("core.round")
            .map_or(0.0, |t| t.self_ns as f64 / 1e6 / t.count.max(1) as f64),
        untraced.iter().map(|r| r.allocs as f64).sum::<f64>() / rounds(&untraced),
        untraced.iter().map(|r| r.alloc_bytes as f64).sum::<f64>() / rounds(&untraced),
        recode.total_ns as f64 / 1e6 / recode.count.max(1) as f64,
        t(&|t| t.recodes as f64) / reps_n,
        span_ms("ml.gradient"),
        span_ms("ml.loss"),
        span_ms("ml.opt_step"),
        (phase_ms("encode") - master_gradient_ns as f64 / 1e6 / n).max(0.0),
        phase_ms("decode"),
        hits / reps_n,
        solves / reps_n,
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        solve_ms,
        sum(&|r| r.pool_hits as f64) / n,
        only(threaded, dispatch),
        only(threaded, engine_ms - dispatch),
        only(threaded, phase_ms("collect")),
        only(!sim, t(&|t| t.worker_busy_s) * 1e3 / n),
        t(&|t| t.late_replies as f64) / n,
        if arrived > 0.0 {
            t(&|t| t.results_used as f64) / arrived
        } else {
            0.0
        },
        sum(&|r| r.spawn_s) / reps_n,
        sum(&|r| r.handshake_s) / reps_n,
        sum(&|r| r.bytes_sent as f64) / n,
        sum(&|r| r.bytes_received as f64) / n,
        sum(&|r| r.frames as f64) / n,
        only(socket, dispatch),
        only(socket, engine_ms - dispatch),
        reps.iter().map(|r| r.worker_exit_errors as f64).sum(),
        t(&|t| t.bytes_saved as f64) / n,
        t(&|t| t.wire_error) / n,
        codec_ns,
        only(sim, phase_ms("collect")),
        sum(&|r| r.drift_rounds as f64) / reps_n,
        sum(&|r| r.deadline_updates as f64) / reps_n,
        1.0 - rate(&traced) / rate(&untraced),
        reps.iter()
            .map(|r| (r.bytes_sent + r.bytes_received) as f64)
            .sum::<f64>()
            / all_rounds.max(1) as f64,
        failed as f64 / attempted.max(1) as f64,
        reps.iter().map(|r| r.approx_rounds as f64).sum::<f64>() / all_rounds.max(1) as f64,
        median(&checks.iter().map(|c| c.loss_gap).collect::<Vec<_>>()),
        only(sim, sum(&|r| r.engine_clock_s) / reps_n),
    ];
    named(PER_LAYER, &values)
}

fn write_outputs(
    args: &Args,
    host: &sys::Host,
    reps: &[Rep],
    outcome: &Outcome,
) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    let write = |name: String, body: &str| -> Result<(), String> {
        let path = args.out.join(name);
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
    };
    let json_str = |s: &str| format!("{:?}", s);
    let result = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"repetitions\":{},\
         \"host\":{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"commit\":{}}},\"result\":{}}}\n",
        json_str(args.kind.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        reps.len(),
        host.nproc,
        json_str(&host.cpu_model),
        json_str(&host.rustc),
        json_str(&host.commit),
        outcome.to_json()?,
    );
    write(format!("{stem}.json"), &result)?;
    if let Some(last) = reps.iter().rev().find(|r| r.traced) {
        write(
            format!("{stem}.spans.trace.json"),
            &trace::chrome_trace(&last.spans),
        )?;
        if let Some(rec) = &last.recorder_trace {
            write(format!("{stem}.recorder.trace.json"), rec)?;
        }
    }
    Ok(())
}
