//! Experiment A9 — compiled plan IR vs the seed dynamic-ordering
//! evaluator.
//!
//! Three comparisons, each planned-vs-reference on the same inputs:
//!
//! * **single_shot** — one `answers` call per iteration; the planned side
//!   pays compilation every time (the CLI `eval` path).
//! * **repeated** — the same query executed 32× per iteration; the
//!   planned side compiles once and reuses the plan (the server
//!   plan-cache hit path). This is where plans must earn >1.2×.
//! * **fixpoint** — semi-naive evaluation with per-(rule, pivot) compiled
//!   delta plans vs the seed naive fixpoint that re-plans each body at
//!   every search node of every round.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use magik::datalog::{Program, Rule};
use magik::workload::paper::school;
use magik::workload::synth::{school_instance, SchoolDataConfig};
use magik::{answers, Atom, CompiledQuery, ExecStats, Fact, Instance, Term, Vocabulary};
use magik_oracle::seed_eval as reference;

fn school_db(schools: usize) -> (magik::relalg::Query, Instance) {
    let w = school();
    let mut vocab = w.vocab.clone();
    let db = school_instance(
        &w,
        &mut vocab,
        SchoolDataConfig {
            schools,
            pupils_per_school: 20,
            learn_prob: 0.4,
            seed: 7,
        },
    );
    (w.q_pbl, db)
}

fn bench_single_shot(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec_plans/single_shot");
    for schools in [16usize, 64] {
        let (q, db) = school_db(schools);
        group.throughput(Throughput::Elements(db.len() as u64));
        group.bench_with_input(BenchmarkId::new("planned", db.len()), &db, |b, db| {
            b.iter(|| answers(&q, db).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("reference", db.len()), &db, |b, db| {
            b.iter(|| reference::answers(&q, db).unwrap());
        });
    }
    group.finish();
}

fn bench_repeated(c: &mut Criterion) {
    const REPS: usize = 32;
    let mut group = c.benchmark_group("exec_plans/repeated");
    for schools in [16usize, 64] {
        let (q, db) = school_db(schools);
        let compiled = CompiledQuery::compile(&q, Some(&db)).unwrap();
        group.throughput(Throughput::Elements(REPS as u64));
        group.bench_with_input(BenchmarkId::new("planned", db.len()), &db, |b, db| {
            b.iter(|| {
                let mut stats = ExecStats::default();
                let mut total = 0usize;
                for _ in 0..REPS {
                    total += compiled.answers(db, &mut stats).len();
                }
                total
            });
        });
        group.bench_with_input(BenchmarkId::new("reference", db.len()), &db, |b, db| {
            b.iter(|| {
                let mut total = 0usize;
                for _ in 0..REPS {
                    total += reference::answers(&q, db).unwrap().len();
                }
                total
            });
        });
    }
    group.finish();
}

/// Transitive closure over a chain of `n` edges.
fn tc_workload(n: usize) -> (Program, Vec<(Atom, Vec<Atom>)>, Instance) {
    let mut v = Vocabulary::new();
    let edge = v.pred("edge", 2);
    let path = v.pred("path", 2);
    let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
    let rules = vec![
        Rule::new(
            Atom::new(path, vec![Term::Var(x), Term::Var(y)]),
            vec![Atom::new(edge, vec![Term::Var(x), Term::Var(y)])],
        ),
        Rule::new(
            Atom::new(path, vec![Term::Var(x), Term::Var(z)]),
            vec![
                Atom::new(path, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(edge, vec![Term::Var(y), Term::Var(z)]),
            ],
        ),
    ];
    let positive: Vec<(Atom, Vec<Atom>)> = rules
        .iter()
        .map(|r| (r.head.clone(), r.body.clone()))
        .collect();
    let program = Program::new(rules).unwrap();
    let mut edb = Instance::new();
    for i in 0..n {
        edb.insert(Fact::new(
            edge,
            vec![v.cst(&format!("n{i}")), v.cst(&format!("n{}", i + 1))],
        ));
    }
    (program, positive, edb)
}

fn bench_fixpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec_plans/fixpoint");
    for n in [16usize, 48] {
        let (program, positive, edb) = tc_workload(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("semi_naive", n), &edb, |b, edb| {
            b.iter(|| program.eval_semi_naive(edb).model.len());
        });
        group.bench_with_input(BenchmarkId::new("reference_naive", n), &edb, |b, edb| {
            b.iter(|| reference::naive_fixpoint(&positive, edb).len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_single_shot, bench_repeated, bench_fixpoint);
criterion_main!(benches);
