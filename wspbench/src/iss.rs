//! `iss-fast`, `iss-inorder`, `iss-ooo`: one engine's raw speed.
//!
//! Lattice passes run back to back on one provider, serially and with
//! no pool, so scheduling does not dilute the engine's speed. This is
//! how the correctness tools use the ISS: many short calls. An
//! operation is one pass; the unit of work is one simulated
//! instruction.

use crate::calib::Calibration;
use crate::lattice::{self, Engine};
use crate::{ms_since, Checks, Layers, Outcome, Params};
use std::time::Instant;
use xobs::{Json, Spans};

pub fn run(engine: Engine, params: &Params) -> Outcome {
    let sizes = params.size.lattice;
    let mut checks = Checks::default();
    let mut calib = Calibration::new();
    let mut setup_s = Vec::new();
    let mut set_up = None;
    for _ in 0..params.size.setup_reps {
        let t = Instant::now();
        let check = lattice::self_check(sizes, params.seed, &mut checks);
        let iss = engine.iss();
        setup_s.push(calib.set_up_s(t));
        set_up = Some((check, iss));
    }
    let ((lattice_doc, counts), mut iss) = set_up.expect("at least one set-up");

    let spans = Spans::new();
    let root = params
        .trace
        .then(|| spans.enter(format!("iss-{}", engine.name())));
    let (mut plain, mut traced_ms) = (Vec::new(), Vec::new());
    let mut passes = 0u64;
    let started = Instant::now();
    while params.more(started, passes as usize) {
        let traced = params.traced_op(passes as usize);
        passes += 1;
        let cycles_before = iss.core_cycles();
        let t = Instant::now();
        let span = traced.then(|| spans.enter("pass"));
        let result = lattice::pass(&mut iss, engine, sizes, params.seed, passes, None);
        if let Some(span) = span {
            let (c32, c16) = iss.core_cycles();
            spans.add_cycles(((c32 - cycles_before.0) + (c16 - cycles_before.1)) as f64);
            span.end();
        }
        let ms = ms_since(t);
        match result {
            Ok(calls) => checks.passed(calls),
            Err(e) => checks.check(false, || format!("pass {passes}: {e}")),
        }
        if traced {
            traced_ms.push(ms);
        } else {
            plain.push((ms, Instant::now()));
        }
        calib.keep_up(ms);
    }
    drop(root);
    let plain_ms: Vec<f64> = plain.iter().map(|p| p.0).collect();
    let measured_s = plain_ms.iter().chain(&traced_ms).sum::<f64>() / 1e3;
    let (a32, a16) = (iss.arch_state32(), iss.arch_state16());
    let insns = (a32.retired + a16.retired) as f64;

    // The cycle-accurate passes ran unverified: replay the same passes
    // on the golden-checked fast path and require the same final state.
    if engine != Engine::Fast {
        let mut reference = Engine::Fast.iss();
        let replay: Result<Vec<u64>, _> = (1..=passes)
            .map(|p| lattice::pass(&mut reference, Engine::Fast, sizes, params.seed, p, None))
            .collect();
        checks.check(replay.is_ok(), || {
            format!("fast-path replay: {}", replay.unwrap_err())
        });
        checks.check(
            reference.arch_state32() == a32 && reference.arch_state16() == a16,
            || {
                format!(
                    "{} diverged from the fast path over {passes} passes",
                    engine.name()
                )
            },
        );
    }

    let results = Json::obj()
        .set("engine", engine.name())
        .set("lattice", lattice_doc);
    let metrics = if params.trace {
        let own = counts[Engine::ALL
            .iter()
            .position(|&e| e == engine)
            .expect("listed")];
        let layers = Layers {
            sim_insns: own.insns as f64,
            sim_cycles: own.cycles as f64,
            sim_ipc: if own.cycles == 0 {
                0.0
            } else {
                own.insns as f64 / own.cycles as f64
            },
            ..Layers::default()
        };
        crate::per_layer(
            params,
            &plain_ms,
            &traced_ms,
            insns / measured_s,
            &calib,
            &layers,
        )
    } else {
        crate::end_to_end(&setup_s, &crate::scaled_ms(&plain, &calib))
    };
    Outcome {
        checks,
        metrics,
        results,
        trace: params
            .trace
            .then(|| crate::trace_report(&format!("iss-{}", engine.name()), params, &spans)),
    }
}
