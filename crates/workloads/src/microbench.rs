//! The paper's running example (Fig. 2 / Fig. 3 / Table I(b)).
//!
//! Relation `R(A, B, …, P)` of 16 `int` columns; query
//! `select sum(B), sum(C), sum(D), sum(E) from R where A = $1`.
//!
//! The paper sweeps the selection's selectivity. We control it through the
//! data: column `A` holds `0` for exactly `⌈s·n⌉` rows (spread uniformly)
//! and unique negative values elsewhere, so `A = 0` matches the target
//! fraction exactly and an equality predicate drives the sweep, as in the
//! paper.

use pdsm_plan::builder::QueryBuilder;
use pdsm_plan::expr::Expr;
use pdsm_plan::logical::{AggExpr, AggFunc, LogicalPlan};
use pdsm_storage::{ColumnDef, DataType, Layout, Schema, Table, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of columns in `R` (A..P).
pub const N_COLS: usize = 16;

/// The schema of `R`.
pub fn schema() -> Schema {
    let names = [
        "A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K", "L", "M", "N", "O", "P",
    ];
    Schema::new(
        names
            .iter()
            .map(|n| ColumnDef::new(*n, DataType::Int32))
            .collect(),
    )
}

/// The paper's PDSM layout for the example query: `{{A},{B,C,D,E},{F..P}}`.
pub fn pdsm_layout() -> Layout {
    Layout::from_groups(
        vec![vec![0], (1..=4).collect(), (5..N_COLS).collect()],
        N_COLS,
    )
    .expect("static layout")
}

/// The three layouts Fig. 3 compares.
pub fn layouts() -> Vec<(&'static str, Layout)> {
    vec![
        ("row", Layout::row(N_COLS)),
        ("column", Layout::column(N_COLS)),
        ("hybrid", pdsm_layout()),
    ]
}

/// Generate `R` with `n` rows under `layout`; `A = 0` matches a fraction
/// `sel` of the rows exactly.
pub fn generate(n: usize, sel: f64, layout: Layout, seed: u64) -> Table {
    let mut t = Table::with_layout("R", schema(), layout).expect("valid layout");
    t.reserve(n);
    let mut rng = SmallRng::seed_from_u64(seed);
    let matches = ((n as f64) * sel).round() as usize;
    // Spread the matching rows evenly so every scan region sees them.
    let stride = if matches == 0 {
        usize::MAX
    } else {
        n.div_ceil(matches)
    };
    let mut row: Vec<Value> = vec![Value::Int32(0); N_COLS];
    for i in 0..n {
        let a = if matches > 0 && i % stride == 0 && i / stride < matches {
            0
        } else {
            -((i as i32) + 1) // unique, never matches A = 0
        };
        row[0] = Value::Int32(a);
        for item in row.iter_mut().take(N_COLS).skip(1) {
            *item = Value::Int32(rng.gen_range(0..1000));
        }
        t.insert(&row).expect("insert");
    }
    t
}

/// The example query with the selectivity hint attached.
pub fn query(sel: f64) -> LogicalPlan {
    QueryBuilder::scan("R")
        .filter_with_selectivity(Expr::col(0).eq(Expr::lit(0)), sel)
        .aggregate(
            vec![],
            (1..=4)
                .map(|c| AggExpr::new(AggFunc::Sum, Expr::col(c)))
                .collect(),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_exec::engine::{CompiledEngine, Engine, VolcanoEngine};
    use std::collections::HashMap;

    fn as_db(t: Table) -> HashMap<String, Table> {
        let mut m = HashMap::new();
        m.insert("R".to_string(), t);
        m
    }

    #[test]
    fn selectivity_is_exact() {
        for &(n, s) in &[
            (10_000usize, 0.01f64),
            (10_000, 0.5),
            (5_000, 0.0),
            (5_000, 1.0),
        ] {
            let t = generate(n, s, Layout::row(N_COLS), 42);
            let matches = (0..t.len())
                .filter(|&r| t.get(r, 0).unwrap() == Value::Int32(0))
                .count();
            assert_eq!(matches, ((n as f64) * s).round() as usize, "n={n} s={s}");
        }
    }

    #[test]
    fn results_agree_across_layouts_and_engines() {
        let base = generate(3_000, 0.1, Layout::row(N_COLS), 7);
        let plan = query(0.1);
        let reference = CompiledEngine::new()
            .execute(&plan, &as_db(base.clone()))
            .unwrap();
        for (name, layout) in layouts() {
            let t = base.relayout(layout).unwrap();
            let out = CompiledEngine::new()
                .execute(&plan, &as_db(t.clone()))
                .unwrap();
            reference.assert_same(&out, name);
            let vol = VolcanoEngine.execute(&plan, &as_db(t)).unwrap();
            reference.assert_same(&vol, &format!("{name}/volcano"));
        }
    }

    #[test]
    fn zero_selectivity_sums_null() {
        let t = generate(1_000, 0.0, pdsm_layout(), 1);
        let out = CompiledEngine::new()
            .execute(&query(0.0), &as_db(t))
            .unwrap();
        assert_eq!(out.rows[0], vec![Value::Null; 4]);
    }
}
