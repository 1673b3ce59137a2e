//! Every way from launches to a profiled run gives the same bits.
//!
//! `profile_applications` is the one parallel launch loop; `profile_kernel`
//! and `Application::profile` are thin entries over the same sampler and
//! the same `ProfiledRun` constructor. For the same launches, each entry —
//! without a memo cache, with a cold one and with a warm one — must yield
//! bit-identical runs, and a batch must equal its applications profiled
//! one by one.

use bf_kernels::nw::nw_application;
use bf_kernels::reduce::{reduce_application, ReduceVariant};
use bf_kernels::stencil::stencil_application;
use bf_kernels::Application;
use gpu_sim::{
    profile_applications, profile_kernel, GpuConfig, KernelTrace, ProfiledRun, SimCache,
};

fn assert_same(a: &ProfiledRun, b: &ProfiledRun, what: &str) {
    assert_eq!(a.kernel, b.kernel, "{what}: kernel");
    assert_eq!(a.gpu, b.gpu, "{what}: gpu");
    assert_eq!(a.time_ms.to_bits(), b.time_ms.to_bits(), "{what}: time_ms");
    assert_eq!(
        a.avg_power_w.to_bits(),
        b.avg_power_w.to_bits(),
        "{what}: avg_power_w"
    );
    assert_eq!(
        a.counters.names(),
        b.counters.names(),
        "{what}: counter names"
    );
    for ((name, x), (_, y)) in a.counters.iter().zip(b.counters.iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {name}");
    }
}

/// One application through the batch driver: uncached, then through one
/// cache twice (every launch a miss, then every launch a hit). All three
/// must agree; returns the uncached run.
fn batch_of_one(gpu: &GpuConfig, name: &str, launches: &[Box<dyn KernelTrace>]) -> ProfiledRun {
    let apps = [(name, launches)];
    let plain = profile_applications(gpu, &apps, None).unwrap().remove(0);
    let cache = SimCache::new();
    for pass in ["cold cache", "warm cache"] {
        let cached = profile_applications(gpu, &apps, Some(&cache))
            .unwrap()
            .remove(0);
        assert_same(&plain, &cached, &format!("{name} on {}, {pass}", gpu.name));
    }
    assert!(cache.stats().hits >= launches.len() as u64);
    plain
}

#[test]
fn every_entry_point_gives_identical_runs() {
    let apps: Vec<Application> = vec![
        reduce_application(ReduceVariant::Reduce1, 1 << 14, 128),
        nw_application(64, 10),
        stencil_application(128, 2),
    ];
    for gpu in [GpuConfig::gtx580(), GpuConfig::k20m(), GpuConfig::v100()] {
        let mut singles = Vec::new();
        for app in &apps {
            let single = batch_of_one(&gpu, &app.name, &app.launches);
            let what = format!("{} on {}", app.name, gpu.name);
            assert_same(&single, &app.profile(&gpu).unwrap(), &what);
            for (i, launch) in app.launches.iter().enumerate() {
                let kernel = profile_kernel(&gpu, launch.as_ref()).unwrap();
                let batched = batch_of_one(&gpu, &launch.name(), std::slice::from_ref(launch));
                assert_same(&kernel, &batched, &format!("{what}, launch {i}"));
            }
            singles.push(single);
        }

        // One batch over every application equals profiling each alone.
        let batch: Vec<(&str, &[Box<dyn KernelTrace>])> = apps
            .iter()
            .map(|a| (a.name.as_str(), a.launches.as_slice()))
            .collect();
        for cache in [None, Some(&SimCache::new())] {
            let runs = profile_applications(&gpu, &batch, cache).unwrap();
            for (run, single) in runs.iter().zip(&singles) {
                assert_same(
                    run,
                    single,
                    &format!("{} in a batch on {}", run.kernel, gpu.name),
                );
            }
        }
    }
}
