//! Stand-alone measurements of single layers, for the traced run only: calls
//! the real-path cycle reaches only through `slurmd`, measured directly on
//! the cycle's node shape so their share of a launch can be read off.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drom_cpuset::distribution::{co_allocate, redistribute_freed, RunningTask};
use drom_cpuset::{CpuSet, DistributionPolicy, Topology};
use drom_ompsim::OmpRuntime;
use drom_shmem::NodeShmem;

use crate::stats::{median, median_grouped};

/// Calls per timed batch of the nanosecond-scale measurements.
const BATCH: u32 = 1_000;

/// Nanoseconds per call of a batch of [`BATCH`] calls that took `elapsed`.
fn per_call_ns(elapsed: Duration) -> f64 {
    elapsed.as_nanos() as f64 / f64::from(BATCH)
}

/// Median per-call nanoseconds of `call`, from `batches` batches of
/// [`BATCH`] calls.
fn per_call_p50_ns(batches: usize, mut call: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                call();
            }
            per_call_ns(t.elapsed())
        })
        .collect();
    median(&mut per_call)
}

/// `cpuset.co_allocate_p50_ns`: the mask arithmetic of a steal launch — one
/// new task onto a 16-CPU node that one running task owns entirely.
pub fn co_allocate_p50_ns(batches: usize) -> f64 {
    let topo = Topology::marenostrum3_node();
    let node = topo.node_mask();
    let running = [RunningTask {
        job_id: 1,
        task_id: 0,
        mask: node.clone(),
    }];
    per_call_p50_ns(batches, || {
        black_box(co_allocate(
            black_box(&node),
            &running,
            1,
            &topo,
            DistributionPolicy::SocketAware,
        ));
    })
}

/// `cpuset.redistribute_freed_p50_ns`: the mask arithmetic of a release —
/// eight freed CPUs back to the one task that keeps running on the other 8.
pub fn redistribute_freed_p50_ns(batches: usize) -> f64 {
    let topo = Topology::marenostrum3_node();
    let running = [RunningTask {
        job_id: 1,
        task_id: 0,
        mask: CpuSet::first_n(8),
    }];
    let freed = topo.node_mask().difference(&running[0].mask);
    per_call_p50_ns(batches, || {
        black_box(redistribute_freed(
            &running,
            black_box(&freed),
            &topo,
            DistributionPolicy::SocketAware,
        ));
    })
}

/// `ompsim.region_p50_us`: an empty fork-join region on a runtime of its
/// own, team of `min(nproc, 2)` so the team is never wider than the host.
pub fn region_p50_us(regions: usize) -> f64 {
    let team = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let runtime = OmpRuntime::new(team);
    let mut ns: Vec<u32> = (0..regions)
        .map(|_| {
            let t = Instant::now();
            runtime.parallel(|ctx| {
                black_box(ctx.thread_num);
            });
            t.elapsed().as_nanos() as u32
        })
        .collect();
    ns.sort_unstable();
    median_grouped(&ns) / 1e3
}

/// `shmem.poll_vs_admin_ns`: an idle hinted poll of one pid while a second
/// thread keeps re-masking (and consuming the masks of) another pid of the
/// same node — the one place in this benchmark where two threads contend.
/// With one CPU the two threads take turns instead of contending; the number
/// is then the uncontended poll and says so by matching `core.poll_idle_ns`.
pub fn poll_vs_admin_ns(duration: Duration) -> Result<f64, String> {
    let shmem = Arc::new(NodeShmem::new("bench", 16));
    let (reader, other) = (1, 2);
    shmem
        .register(reader, CpuSet::first_n(8))
        .map_err(|e| e.to_string())?;
    let wide = CpuSet::from_range(8..16).map_err(|e| e.to_string())?;
    let narrow = CpuSet::from_range(8..12).map_err(|e| e.to_string())?;
    shmem
        .register(other, wide.clone())
        .map_err(|e| e.to_string())?;
    let hint = shmem.slot_hint(reader).map_err(|e| e.to_string())?;
    let (running, stop) = (AtomicBool::new(false), AtomicBool::new(false));

    std::thread::scope(|scope| {
        let admin = scope.spawn(|| -> Result<u64, String> {
            let mut posts = 0u64;
            // SAFETY(ordering): start/stop flags publish no other data.
            running.store(true, Ordering::Relaxed);
            while !stop.load(Ordering::Relaxed) {
                for mask in [&narrow, &wide] {
                    shmem
                        .set_pending_mask(other, mask.clone(), false)
                        .map_err(|e| e.to_string())?;
                    shmem.poll(other).map_err(|e| e.to_string())?;
                    posts += 1;
                }
            }
            Ok(posts)
        });
        while !running.load(Ordering::Relaxed) && !admin.is_finished() {
            std::hint::spin_loop();
        }
        let started = Instant::now();
        let mut per_call = Vec::new();
        let mut failure = None;
        while started.elapsed() < duration && failure.is_none() {
            let t = Instant::now();
            for _ in 0..BATCH {
                match shmem.poll_hinted(hint, reader) {
                    Ok(None) => {}
                    other => failure = Some(format!("idle poll returned {other:?}")),
                }
            }
            per_call.push(per_call_ns(t.elapsed()));
        }
        stop.store(true, Ordering::Relaxed);
        let posts = admin
            .join()
            .map_err(|_| "admin thread panicked".to_string())??;
        if let Some(failure) = failure {
            return Err(failure);
        }
        if posts == 0 {
            return Err("the admin thread never posted a mask".into());
        }
        Ok(median(&mut per_call))
    })
}
