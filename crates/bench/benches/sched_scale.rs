//! Scheduler throughput at cluster scale: the cost of one scheduling pass of
//! each policy over a loaded 128-node view (and the indexed malleable pass
//! at 1024 nodes), plus the end-to-end event rate of the trace-driven
//! cluster simulator.
//!
//! The scheduling pass runs at every submission and completion, so a
//! thousand-job trace pays it thousands of times; its cost is what bounds
//! how big a cluster the malleable controller can serve. `malleable_*`
//! measures the indexed pass the way production runs it (fed the driver's
//! event-maintained `SchedIndex`); `malleable_scan_*` measures the pre-index
//! reference implementation, so the speedup of the donor/availability
//! indices stays visible (at 128 nodes and on the reservation view only:
//! the 1024-node scan pass took ~0.95 s per iteration to time code nobody
//! ships). Baselines are recorded in `BENCH_sched.json`.
//!
//! The per-pass benches call `schedule` thousands of times on one frozen
//! view; the policies keep no state between passes, so every iteration does
//! the full pass. Every view carries a real `SchedIndex` and
//! `AdmissionOrder`, like production's (the scan reference reads only the
//! free vector).

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use drom_bench::sched_fixtures::{
    loaded_state, loaded_state_model, reservation_stress_state, NODE_CPUS,
};
use drom_sim::{mixed_hpc_trace, ClusterSim};
use drom_slurm::policy::{AdmissionOrder, ClusterView, SchedIndex, SchedulerPolicy};
use drom_slurm::{BackfillPolicy, FirstFitPolicy, MalleablePolicy, MalleableScanPolicy};

fn bench_sched_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched_scale");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(3));

    let (free, running, queue) = loaded_state(128);
    let index = SchedIndex::rebuild(&free, &running);
    let order = AdmissionOrder::from_queue(&queue);
    let view = ClusterView {
        node_cpus: NODE_CPUS,
        running: &running,
        index: &index,
        order: &order,
    };

    group.bench_function("first_fit_pass_128n", |b| {
        let mut policy = FirstFitPolicy::default();
        b.iter(|| black_box(policy.schedule(&view, &queue, 1_000)));
    });

    group.bench_function("backfill_pass_128n", |b| {
        let mut policy = BackfillPolicy::default();
        b.iter(|| black_box(policy.schedule(&view, &queue, 1_000)));
    });

    group.bench_function("malleable_pass_128n", |b| {
        let mut policy = MalleablePolicy::default();
        b.iter(|| black_box(policy.schedule(&view, &queue, 1_000)));
    });

    // The pre-index reference on the same view (it ignores the index): this
    // is the committed 2 ms baseline the indexed pass is measured against.
    group.bench_function("malleable_scan_pass_128n", |b| {
        let mut policy = MalleableScanPolicy::default();
        b.iter(|| black_box(policy.schedule(&view, &queue, 1_000)));
    });

    // The same loaded view with the calibrated app models attached: the
    // pass pays curve-scaled estimates instead of linear div_ceil. Baselined
    // next to the linear pass so the model coupling's cost stays visible
    // (sched_guard enforces it in CI).
    let (free_m, running_m, queue_m) = loaded_state_model(128);
    let index_m = SchedIndex::rebuild(&free_m, &running_m);
    let order_m = AdmissionOrder::from_queue(&queue_m);
    let view_m = ClusterView {
        node_cpus: NODE_CPUS,
        running: &running_m,
        index: &index_m,
        order: &order_m,
    };
    group.bench_function("malleable_model_pass_128n", |b| {
        let mut policy = MalleablePolicy::default();
        b.iter(|| black_box(policy.schedule(&view_m, &queue_m, 1_000)));
    });

    // The scale-out tier's view: 1024 nodes, ~1530 running, 512 queued.
    let (free_xl, running_xl, queue_xl) = loaded_state(1024);
    let index_xl = SchedIndex::rebuild(&free_xl, &running_xl);
    let order_xl = AdmissionOrder::from_queue(&queue_xl);
    let view_xl = ClusterView {
        node_cpus: NODE_CPUS,
        running: &running_xl,
        index: &index_xl,
        order: &order_xl,
    };

    group.bench_function("malleable_pass_1024n", |b| {
        let mut policy = MalleablePolicy::default();
        b.iter(|| black_box(policy.schedule(&view_xl, &queue_xl, 1_000)));
    });

    // The reservation-stress view: 1024 rigid holders with distinct
    // completion estimates and one cluster-wide queued job, so the pass cost
    // *is* the drain-reservation forecast (the fit only succeeds at the very
    // last release). The indexed pass walks the release timeline; the scan
    // keeps the per-candidate replay, so the pair records the timeline's
    // speedup the way malleable_* vs malleable_scan_* records the index's.
    let (free_r, running_r, queue_r) = reservation_stress_state(1024);
    let index_r = SchedIndex::rebuild(&free_r, &running_r);
    let order_r = AdmissionOrder::from_queue(&queue_r);
    let view_r = ClusterView {
        node_cpus: NODE_CPUS,
        running: &running_r,
        index: &index_r,
        order: &order_r,
    };

    group.bench_function("malleable_reservation_pass_1024n", |b| {
        let mut policy = MalleablePolicy::default();
        b.iter(|| black_box(policy.schedule(&view_r, &queue_r, 1_000)));
    });

    group.bench_function("malleable_scan_reservation_pass_1024n", |b| {
        let mut policy = MalleableScanPolicy::default();
        b.iter(|| black_box(policy.schedule(&view_r, &queue_r, 1_000)));
    });

    // End-to-end: a full 300-job trace on 32 nodes, malleable policy. The
    // metric that matters is events/second; the report prints time per run
    // (deterministically 806 events for this trace — assert it if you change
    // the parameters), so divide accordingly.
    group.bench_function("cluster_sim_300_jobs_32n", |b| {
        let trace = mixed_hpc_trace(7, 300, 32, NODE_CPUS, 1.15).generate();
        let sim = ClusterSim::new(32, NODE_CPUS);
        b.iter(|| {
            let report = sim
                .run(Box::new(MalleablePolicy::default()), &trace)
                .unwrap();
            black_box(report.events_processed)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_sched_scale);
criterion_main!(benches);
