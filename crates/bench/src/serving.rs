//! `serving_storm`: the RequestMux scalability benchmark.
//!
//! 10,000 concurrent two-way invocations through one node, all riding the
//! **single pooled connection** a `RequestMux` owns for the (node, peer)
//! pair. A handful of submitter threads issue every request with the
//! two-phase API (`submit()` first, `wait()` later), so the number of
//! outstanding requests is bounded by the pending-reply table — not by
//! blocked OS threads. The bench proves that claim with a live thread
//! count read from `/proc/self/status` at the moment all 10k handles are
//! in flight.
//!
//! Latency percentiles and throughput are wall-clock: unlike the
//! bandwidth benches, this one measures the *implementation's* ability to
//! pipeline — slot bookkeeping, out-of-order routing, lock contention on
//! the shared write path — not the simulated fabric's bytes-per-second.

use padico_fabric::topology::single_cluster;
use padico_fabric::FabricKind;
use padico_orb::cdr::{CdrReader, CdrWriter};
use padico_orb::orb::{AsyncReply, ObjectRef, Orb};
use padico_orb::poa::{Servant, ServerCtx};
use padico_orb::profile::OrbProfile;
use padico_orb::OrbError;
use padico_tm::runtime::PadicoTM;
use padico_tm::selector::FabricChoice;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Outcome of one storm run.
#[derive(Debug, Clone, Copy)]
pub struct StormResult {
    /// Two-way invocations issued (all must succeed).
    pub requests: usize,
    /// Client threads that issued them.
    pub submitters: usize,
    /// Most OS threads observed in the whole process while handles were
    /// being submitted (sampled continuously until every handle was in
    /// flight, none yet consumed).
    pub peak_threads: usize,
    /// Most entries observed in the mux's pending-reply table over the
    /// same window — requests the server had not yet answered.
    pub peak_pending: usize,
    /// Wall-clock sojourn percentiles, submit → reply consumed, µs.
    pub p50_us: f64,
    /// 99th percentile sojourn, µs.
    pub p99_us: f64,
    /// Completed two-way invocations per wall-clock second.
    pub throughput_rps: f64,
    /// Wall-clock seconds for the whole storm (submit + drain).
    pub wall_s: f64,
}

struct EchoServant;

impl Servant for EchoServant {
    fn repository_id(&self) -> &str {
        "IDL:Bench/Echo:1.0"
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        match operation {
            "echo" => {
                reply.write_u64(args.read_u64()?);
                Ok(())
            }
            "drain" => Ok(()),
            other => Err(OrbError::BadOperation(other.into())),
        }
    }
}

/// Current number of OS threads in this process (`Threads:` line of
/// `/proc/self/status`); 0 when the file is unavailable.
pub fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

/// Run the storm: `total` two-way `echo` invocations from `submitters`
/// threads through one node, one pooled connection.
pub fn run(total: usize, submitters: usize) -> StormResult {
    let (topo, _ids) = single_cluster(2);
    let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
    let choice = FabricChoice::Kind(FabricKind::Myrinet);
    let client_orb =
        Orb::start(Arc::clone(&tms[0]), "storm", OrbProfile::omniorb3(), choice).unwrap();
    let server_orb =
        Orb::start(Arc::clone(&tms[1]), "storm", OrbProfile::omniorb3(), choice).unwrap();
    let server_node = tms[1].node();
    let obj = client_orb.object_ref(server_orb.activate(Arc::new(EchoServant)));
    obj.request("drain").invoke().unwrap(); // connection warmup
    drop(server_orb); // the ORB's endpoint listener holds its own Arc

    let per = total / submitters;
    let total = per * submitters;
    // Workers count themselves in as they finish submitting; main
    // samples the thread count and the pending-reply table the whole
    // time. The drain barrier keeps every handle unconsumed until all
    // of them are in flight.
    let submitted = Arc::new(AtomicUsize::new(0));
    let drain = Arc::new(Barrier::new(submitters + 1));
    let latencies = Arc::new(Mutex::new(Vec::with_capacity(total)));

    let started = Instant::now();
    let (peak_threads, peak_pending) = std::thread::scope(|scope| {
        for worker in 0..submitters {
            let obj: ObjectRef = obj.clone();
            let submitted = Arc::clone(&submitted);
            let drain = Arc::clone(&drain);
            let latencies = Arc::clone(&latencies);
            scope.spawn(move || {
                let mut inflight: Vec<(u64, Instant, AsyncReply)> = Vec::with_capacity(per);
                for i in 0..per {
                    let seq = (worker * per + i) as u64;
                    let handle = obj
                        .request("echo")
                        .arg_u64(seq)
                        .idempotent()
                        .submit();
                    inflight.push((seq, Instant::now(), handle));
                }
                submitted.fetch_add(1, Ordering::SeqCst);
                drain.wait();
                let mut mine = Vec::with_capacity(per);
                for (seq, t0, handle) in inflight {
                    let mut reply = handle.wait().unwrap();
                    assert_eq!(reply.read_u64().unwrap(), seq, "reply routed to wrong handle");
                    mine.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                latencies.lock().unwrap().extend(mine);
            });
        }
        // Sample until every handle is in flight and none consumed —
        // the window the tentpole's claim is about.
        let mut peak_threads = 0;
        let mut peak_pending = 0;
        loop {
            peak_threads = peak_threads.max(process_threads());
            peak_pending = peak_pending
                .max(client_orb.pending_request_count(server_node, &obj.ior().endpoint));
            if submitted.load(Ordering::SeqCst) == submitters {
                break;
            }
            std::thread::yield_now();
        }
        drain.wait();
        (peak_threads, peak_pending)
    });
    let wall_s = started.elapsed().as_secs_f64();

    let mut lats = Arc::try_unwrap(latencies).unwrap().into_inner().unwrap();
    lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    StormResult {
        requests: total,
        submitters,
        peak_threads,
        peak_pending,
        p50_us: percentile(&lats, 0.50),
        p99_us: percentile(&lats, 0.99),
        throughput_rps: total as f64 / wall_s,
        wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_outstanding_is_not_threads() {
        // The tentpole claim: 10k concurrent two-way invocations cost 10k
        // pending-table entries, not 10k blocked threads. The whole
        // process — two TM nodes, the world scheduler, the capped
        // dispatch pool, eight submitters — stays within a bounded
        // handful of OS threads. The margins here
        // are generous because `/proc/self/status` counts the whole test
        // binary and sibling tests run concurrently; the tight fence (< 64
        // threads, own process) is the `serving_storm` bin gate that
        // `scripts/bench_snapshot.sh` enforces.
        let before = process_threads();
        let r = run(10_000, 8);
        assert_eq!(r.requests, 10_000);
        assert!(
            r.peak_threads > 0 && r.peak_threads.saturating_sub(before) < 128,
            "the storm should add a bounded number of threads, saw \
             {} (baseline {before})",
            r.peak_threads
        );
        assert!(
            r.requests >= 20 * r.peak_threads,
            "outstanding ({}) should dwarf thread count ({})",
            r.requests,
            r.peak_threads
        );
        assert!(r.p50_us > 0.0 && r.p99_us >= r.p50_us);
        assert!(r.throughput_rps > 0.0);
    }
}
