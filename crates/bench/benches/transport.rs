//! Real wall-time cost of the PadicoTM transport stack: raw fabric
//! hand-off, circuit round trip, VLink round trip, and ORB invocation.
//! (Virtual-time figures are produced by the harness binaries; these
//! benches track the *implementation's* real overhead per operation.)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use padico_fabric::topology::single_cluster;
use padico_fabric::{FabricKind, Payload};
use padico_orb::orb::Orb;
use padico_orb::profile::OrbProfile;
use padico_tm::circuit::CircuitSpec;
use padico_tm::ArbitratedDriver;
use padico_tm::runtime::PadicoTM;
use padico_tm::selector::FabricChoice;
use padico_tm::VLinkListener;
use std::sync::Arc;

fn bench_circuit_roundtrip(c: &mut Criterion) {
    let (topo, ids) = single_cluster(2);
    let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
    let spec = CircuitSpec::new("bench", ids).with_choice(FabricChoice::Kind(FabricKind::Myrinet));
    let c0 = Arc::new(tms[0].circuit(spec.clone()).unwrap());
    let c1 = Arc::new(tms[1].circuit(spec).unwrap());
    // Echo thread serving forever (detached; the process exits after
    // benches).
    {
        let c1 = Arc::clone(&c1);
        std::thread::spawn(move || {
            while let Ok((_src, h, payload)) = c1.recv() {
                if c1.send(0, h, payload).is_err() {
                    return;
                }
            }
        });
    }
    let mut group = c.benchmark_group("circuit_roundtrip");
    for size in [8usize, 64, 64 << 10] {
        group.throughput(Throughput::Bytes(2 * size as u64));
        let payload = vec![0u8; size];
        group.bench_function(format!("{size}B"), |b| {
            b.iter(|| {
                c0.send(1, 0, Payload::from_vec(payload.clone())).unwrap();
                c0.recv().unwrap()
            })
        });
    }
    group.finish();
}

/// Overhead per small message under a 64-frame burst: every iteration
/// sends 64 eight-byte frames, flushes, and waits for a one-byte ack
/// from the echo side. Run once with per-frame wire messages and once
/// with small-message coalescing, so the reported per-element times are
/// directly comparable.
fn bench_small_burst(c: &mut Criterion) {
    use padico_tm::runtime::{CoalescePolicy, TmConfig};

    const BURST: usize = 64;

    let build = |coalesce: bool| {
        let (topo, ids) = single_cluster(2);
        let cfg = TmConfig {
            coalesce: coalesce.then(CoalescePolicy::default),
            ..TmConfig::default()
        };
        let tms = PadicoTM::boot_all_with_config(Arc::new(topo), cfg).unwrap();
        let spec =
            CircuitSpec::new("burst", ids).with_choice(FabricChoice::Kind(FabricKind::Myrinet));
        let c0 = Arc::new(tms[0].circuit(spec.clone()).unwrap());
        let c1 = Arc::new(tms[1].circuit(spec).unwrap());
        // Ack thread: swallow one burst, answer with a single byte.
        {
            let c1 = Arc::clone(&c1);
            std::thread::spawn(move || loop {
                for _ in 0..BURST {
                    if c1.recv().is_err() {
                        return;
                    }
                }
                if c1.send(0, 0, Payload::from_vec(vec![1u8])).is_err() {
                    return;
                }
                if c1.core().flush().is_err() {
                    return;
                }
            });
        }
        c0
    };

    let mut group = c.benchmark_group("small_burst");
    group.throughput(Throughput::Elements(BURST as u64));
    for (label, coalesce) in [("uncoalesced", false), ("coalesced", true)] {
        let c0 = build(coalesce);
        group.bench_function(label, |b| {
            b.iter(|| {
                for i in 0..BURST {
                    c0.send(1, i as u64, Payload::from_vec(vec![0u8; 8])).unwrap();
                }
                c0.core().flush().unwrap();
                c0.recv().unwrap()
            })
        });
    }
    group.finish();
}

fn bench_vlink_roundtrip(c: &mut Criterion) {
    let (topo, _ids) = single_cluster(2);
    let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
    // Reactive echo: each frame bounces back inline on the server node's
    // scheduler worker.
    VLinkListener::on_accept(&tms[1], "bench", |stream| {
        let echo = Arc::clone(&stream);
        stream.on_frames(Arc::new(move |frame| match frame {
            Some(frame) => {
                let _ = echo.write_payload(frame).and_then(|()| echo.flush());
            }
            None => echo.stop_frames(),
        }))
    })
    .unwrap();
    let s = tms[0]
        .vlink_connect(tms[1].node(), "bench", FabricChoice::Auto)
        .unwrap();
    let mut group = c.benchmark_group("vlink_roundtrip");
    for size in [64usize, 64 << 10] {
        group.throughput(Throughput::Bytes(2 * size as u64));
        let payload = vec![0u8; size];
        let mut buf = vec![0u8; size];
        group.bench_function(format!("{size}B"), |b| {
            b.iter(|| {
                s.write_all(&payload).unwrap();
                s.read_exact(&mut buf).unwrap();
            })
        });
    }
    group.finish();
}

fn bench_orb_invocation(c: &mut Criterion) {
    use padico_orb::cdr::{CdrReader, CdrWriter};
    use padico_orb::poa::{Servant, ServerCtx};
    use padico_orb::OrbError;

    struct Noop;
    impl Servant for Noop {
        fn repository_id(&self) -> &str {
            "IDL:Bench/Noop:1.0"
        }
        fn dispatch(
            &self,
            _op: &str,
            _args: &mut CdrReader,
            _reply: &mut CdrWriter,
            _ctx: &ServerCtx,
        ) -> Result<(), OrbError> {
            Ok(())
        }
    }

    let (topo, _ids) = single_cluster(2);
    let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
    let client = Orb::start(
        Arc::clone(&tms[0]),
        "bench",
        OrbProfile::omniorb3(),
        FabricChoice::Auto,
    )
    .unwrap();
    let server = Orb::start(
        Arc::clone(&tms[1]),
        "bench",
        OrbProfile::omniorb3(),
        FabricChoice::Auto,
    )
    .unwrap();
    let obj = client.object_ref(server.activate(Arc::new(Noop)));
    obj.request("x").invoke().unwrap();
    c.bench_function("orb_twoway_noop", |b| {
        b.iter(|| obj.request("x").invoke().unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_circuit_roundtrip, bench_small_burst, bench_vlink_roundtrip, bench_orb_invocation
}
criterion_main!(benches);
