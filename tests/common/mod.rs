//! Shared helpers for the workspace-level test suites.

use mrdb::exec::TableProvider;
use mrdb::prelude::*;

/// The compiled engine split over four workers: run beside every
/// `EngineKind`, so each suite that compares engines also covers the
/// morsel-driven pipeline driver.
static COMPILED_4T: CompiledEngine = CompiledEngine::with_threads(4);

/// Every engine that can run `plan` (`EngineKind::supports` — the
/// vectorized engine has no joins or sorts), labelled, then the compiled
/// engine at four threads.
pub fn engines(plan: &LogicalPlan) -> Vec<(String, &'static dyn Engine)> {
    EngineKind::all()
        .into_iter()
        .filter(|kind| kind.supports(plan))
        .map(|kind| (format!("{kind:?}"), kind.engine()))
        .chain([(
            "Compiled/4 threads".to_string(),
            &COMPILED_4T as &dyn Engine,
        )])
        .collect()
}

/// Run `plan` on every engine `EngineKind::all()` lists and on the compiled
/// engine at four threads, assert they all agree (up to row order), and
/// return one output for content assertions. Iterating `all()` means a
/// newly registered engine is covered by every suite that calls this,
/// without editing any test. Engines that cannot run the plan shape are
/// skipped.
pub fn assert_engines_agree(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    ctx: &str,
) -> QueryOutput {
    let mut reference: Option<(String, QueryOutput)> = None;
    for (name, engine) in engines(plan) {
        let out = engine
            .execute(plan, provider)
            .unwrap_or_else(|e| panic!("{ctx}: {name} failed: {e}"));
        match &reference {
            None => reference = Some((name, out)),
            Some((n0, base)) => base.assert_same(&out, &format!("{ctx}: {n0} vs {name}")),
        }
    }
    reference.expect("EngineKind::all() is non-empty").1
}
