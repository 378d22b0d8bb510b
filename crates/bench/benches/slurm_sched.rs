//! SLURM-side costs: the task/affinity launch_request mask computation and
//! the full pre-init launch path (Section 5).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use drom_slurm::{Cluster, JobSpec, Srun};

fn bench_slurm(c: &mut Criterion) {
    let mut group = c.benchmark_group("slurm_sched");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(3));

    group.bench_function("launch_request_idle_node", |b| {
        let cluster = Arc::new(Cluster::marenostrum3(1));
        let srun = Srun::new(Arc::clone(&cluster), true);
        let slurmd = srun.slurmd("node0").unwrap();
        b.iter(|| slurmd.launch_request(1, 2).unwrap());
    });

    group.bench_function("launch_and_complete_coallocated_job", |b| {
        let cluster = Arc::new(Cluster::marenostrum3(2));
        let srun = Srun::new(Arc::clone(&cluster), true);
        let nodes = cluster.node_names();
        let sim = JobSpec::new(1, "sim").with_tasks(2).with_nodes(2);
        let launched_sim = srun.launch(&sim, &nodes).unwrap();
        let mut next_id = 100u64;
        b.iter(|| {
            next_id += 1;
            let ana = JobSpec::new(next_id, "ana").with_tasks(2).with_nodes(2);
            let launched = srun.launch(&ana, &nodes).unwrap();
            srun.complete(&launched).unwrap();
        });
        srun.complete(&launched_sim).unwrap();
    });

    group.finish();
}

criterion_group!(benches, bench_slurm);
criterion_main!(benches);
