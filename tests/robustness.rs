//! Failure-injection integration tests: the stack must degrade with
//! errors, not hangs or corruption.

use bytes::Bytes;
use padico::ccm::assembly::Assembly;
use padico::ccm::package::Package;
use padico::ccm::CcmError;
use padico::core::Grid;
use padico::fabric::topology::single_cluster;
use padico::orb::cdr::{CdrReader, CdrWriter};
use padico::orb::orb::Orb;
use padico::orb::poa::{Servant, ServerCtx};
use padico::orb::profile::OrbProfile;
use padico::orb::OrbError;
use padico::tm::runtime::PadicoTM;
use padico::tm::selector::FabricChoice;
use std::sync::Arc;

struct FlakyServant;

impl Servant for FlakyServant {
    fn repository_id(&self) -> &str {
        "IDL:Rb/Flaky:1.0"
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        match operation {
            "ok" => {
                reply.write_i32(1);
                Ok(())
            }
            "panic" => panic!("deliberate servant panic"),
            "garbage_args" => {
                // Reads more than the request carries.
                let _ = args.read_f64_seq()?;
                Ok(())
            }
            other => Err(OrbError::BadOperation(other.into())),
        }
    }
}

fn orb_pair() -> (Arc<Orb>, Arc<Orb>) {
    let (topo, _ids) = single_cluster(2);
    let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
    (
        Orb::start(
            Arc::clone(&tms[0]),
            "rb",
            OrbProfile::omniorb3(),
            FabricChoice::Auto,
        )
        .unwrap(),
        Orb::start(
            Arc::clone(&tms[1]),
            "rb",
            OrbProfile::omniorb3(),
            FabricChoice::Auto,
        )
        .unwrap(),
    )
}

#[test]
fn servant_panic_becomes_system_exception_and_connection_survives() {
    let (client, server) = orb_pair();
    let obj = client.object_ref(server.activate(Arc::new(FlakyServant)));
    let err = obj.request("panic").invoke().unwrap_err();
    assert!(
        matches!(&err, OrbError::System(msg) if msg.contains("panicked")),
        "{err:?}"
    );
    // The connection (and the server) keep working afterwards.
    let mut reply = obj.request("ok").invoke().unwrap();
    assert_eq!(reply.read_i32().unwrap(), 1);
}

#[test]
fn short_argument_reads_become_marshal_errors() {
    let (client, server) = orb_pair();
    let obj = client.object_ref(server.activate(Arc::new(FlakyServant)));
    let err = obj.request("garbage_args").invoke().unwrap_err();
    assert!(matches!(&err, OrbError::System(msg) if msg.contains("MARSHAL")));
    // Still alive.
    obj.request("ok").invoke().unwrap();
}

#[test]
fn dropped_connection_is_reestablished_on_next_call() {
    let (client, server) = orb_pair();
    let ior = server.activate(Arc::new(FlakyServant));
    let obj = client.object_ref(ior.clone());
    obj.request("ok").invoke().unwrap();
    // Simulate a connection failure by evicting the cached connection.
    client.drop_connection(ior.node, &ior.endpoint);
    let mut reply = obj.request("ok").invoke().unwrap();
    assert_eq!(reply.read_i32().unwrap(), 1, "fresh connection works");
}

#[test]
fn concurrent_clients_multiplex_one_connection() {
    // 32 threads on one node invoking the same remote object: all replies
    // must route back to their own requesters.
    let (client, server) = orb_pair();

    struct Doubler;
    impl Servant for Doubler {
        fn repository_id(&self) -> &str {
            "IDL:Rb/Doubler:1.0"
        }
        fn dispatch(
            &self,
            _op: &str,
            args: &mut CdrReader,
            reply: &mut CdrWriter,
            _ctx: &ServerCtx,
        ) -> Result<(), OrbError> {
            let v = args.read_i32()?;
            reply.write_i32(v * 2);
            Ok(())
        }
    }

    let obj = client.object_ref(server.activate(Arc::new(Doubler)));
    let handles: Vec<_> = (0..32)
        .map(|i| {
            let obj = obj.clone();
            std::thread::spawn(move || {
                for k in 0..10 {
                    let v = i * 100 + k;
                    let mut reply = obj.request("x2").arg_i32(v).invoke().unwrap();
                    assert_eq!(reply.read_i32().unwrap(), v * 2, "cross-routed reply");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn bad_assembly_and_missing_factories_fail_cleanly() {
    let grid = Grid::single_cluster(2).unwrap();
    // Package exists but its factory symbol is not registered anywhere.
    let assembly =
        Assembly::parse(r#"<assembly name="x"><component id="c" package="p"/></assembly>"#)
            .unwrap();
    let err = grid
        .deployer()
        .deploy(
            &assembly,
            &[Package::new("p", "1.0", "unregistered_symbol")],
        )
        .unwrap_err();
    assert!(
        matches!(&err, CcmError::Remote(msg) if msg.contains("unregistered_symbol")),
        "{err:?}"
    );
    // Malformed assembly XML.
    assert!(Assembly::parse("<assembly name='x'><component/></assembly>").is_err());
    assert!(Assembly::parse("not xml at all").is_err());
    // Unknown placement node.
    grid.register_factory("mk", |_env| {
        unreachable!("placement fails before instantiation")
    });
    let ghost = Assembly::parse(
        r#"<assembly name="g">
             <component id="c" package="p"><placement node="n99"/></component>
           </assembly>"#,
    )
    .unwrap();
    let err = grid
        .deployer()
        .deploy(&ghost, &[Package::new("p", "1.0", "mk")])
        .unwrap_err();
    assert!(matches!(err, CcmError::Deployment(_)));
}

#[test]
fn oversized_and_empty_payloads_roundtrip() {
    let (client, server) = orb_pair();

    struct EchoLen;
    impl Servant for EchoLen {
        fn repository_id(&self) -> &str {
            "IDL:Rb/EchoLen:1.0"
        }
        fn dispatch(
            &self,
            _op: &str,
            args: &mut CdrReader,
            reply: &mut CdrWriter,
            _ctx: &ServerCtx,
        ) -> Result<(), OrbError> {
            let blob = args.read_octet_seq()?;
            reply.write_u64(blob.len() as u64);
            Ok(())
        }
    }

    let obj = client.object_ref(server.activate(Arc::new(EchoLen)));
    for size in [0usize, 1, 4095, 4096, 4097, 8 << 20] {
        let mut reply = obj
            .request("len")
            .arg_octet_seq(Bytes::from(vec![0u8; size]))
            .invoke()
            .unwrap();
        assert_eq!(reply.read_u64().unwrap(), size as u64, "size {size}");
    }
}

/// An ORB pair with a tight end-to-end deadline and a generous retry
/// budget, plus the fabrics between the two nodes so tests can arm
/// fault plans.
fn deadline_pair(
    deadline: std::time::Duration,
) -> (Arc<Orb>, Arc<Orb>, Vec<Arc<padico::fabric::SimFabric>>) {
    let (topo, ids) = single_cluster(2);
    let topo = Arc::new(topo);
    let fabrics = topo.fabrics_between(ids[0], ids[1]);
    let cfg = padico::tm::TmConfig {
        default_deadline: deadline,
        connect_timeout: std::time::Duration::from_millis(50),
        retry: padico::tm::RetryPolicy {
            max_attempts: 6,
            ..Default::default()
        },
        ..Default::default()
    };
    let tms = PadicoTM::boot_all_with_config(topo, cfg).unwrap();
    let client = Orb::start(
        Arc::clone(&tms[0]),
        "rb",
        OrbProfile::omniorb3(),
        FabricChoice::Auto,
    )
    .unwrap();
    let server = Orb::start(
        Arc::clone(&tms[1]),
        "rb",
        OrbProfile::omniorb3(),
        FabricChoice::Auto,
    )
    .unwrap();
    (client, server, fabrics)
}

#[test]
fn deadline_expiring_mid_backoff_stops_retries_and_leaks_nothing() {
    // 2 ms of virtual budget against a retry policy whose backoff series
    // (50 µs, 200 µs, 800 µs, 3.2 ms, …) overruns it mid-sequence: the
    // retry loop must stop with the typed TIMEOUT as soon as the budget
    // is spent — well before the 6-attempt policy limit — and leave no
    // pending-map entry behind.
    let (client, server, fabrics) = deadline_pair(std::time::Duration::from_millis(2));
    let ior = server.activate(Arc::new(FlakyServant));
    let obj = client.object_ref(ior.clone());
    // Warm up outside the budget under test. The first invoke also
    // connects the VLink, and its reply wait is bounded by the same 2 ms
    // in wall-clock time, which a loaded host can overrun: it is retried
    // until one attempt gets its reply.
    let warmed = (0..100).any(|_| obj.request("ok").invoke().is_ok());
    assert!(warmed, "no warm-up invoke got its reply");

    // From here on every frame is dropped: each attempt times out and
    // the backoff between attempts burns the remaining virtual budget.
    for f in &fabrics {
        f.set_fault_plan(padico::fabric::FaultPlan::drops(1, 100));
    }
    let before = client.tm().recovery().snapshot().giop_retries;
    let err = obj.request("ok").idempotent().invoke().unwrap_err();
    assert!(
        matches!(err, OrbError::DeadlineExceeded(_)),
        "an expired budget must surface as the typed TIMEOUT, got {err}"
    );
    assert!(!err.is_retryable(), "an expired deadline is terminal");
    let retries = client.tm().recovery().snapshot().giop_retries - before;
    assert!(
        retries >= 1,
        "the deadline must expire mid-retry, not before the first attempt"
    );
    assert!(
        retries < 5,
        "the loop must stop when the budget is gone, not ride out all 6 \
         attempts; recorded {retries} retries"
    );
    assert_eq!(
        client.pending_request_count(ior.node, &ior.endpoint),
        0,
        "abandoned attempts must not leak pending-map entries"
    );
}

#[test]
fn cancel_request_suppresses_the_late_reply() {
    use std::sync::mpsc;

    // A servant that blocks until the test releases it, so the client's
    // reply deadline reliably expires first.
    struct Blocker {
        started: mpsc::Sender<()>,
        release: std::sync::Mutex<mpsc::Receiver<()>>,
    }
    impl Servant for Blocker {
        fn repository_id(&self) -> &str {
            "IDL:Rb/Blocker:1.0"
        }
        fn dispatch(
            &self,
            op: &str,
            _args: &mut CdrReader,
            reply: &mut CdrWriter,
            _ctx: &ServerCtx,
        ) -> Result<(), OrbError> {
            match op {
                "block" => {
                    self.started.send(()).ok();
                    self.release.lock().unwrap().recv().ok();
                    reply.write_i32(7);
                    Ok(())
                }
                "ok" => {
                    reply.write_i32(1);
                    Ok(())
                }
                other => Err(OrbError::BadOperation(other.into())),
            }
        }
    }

    let (client, server, _fabrics) = deadline_pair(std::time::Duration::from_millis(20));
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let ior = server.activate(Arc::new(Blocker {
        started: started_tx,
        release: std::sync::Mutex::new(release_rx),
    }));
    let obj = client.object_ref(ior.clone());

    // The invocation gives up after its 20 ms reply deadline and chases
    // the abandoned request with a best-effort CancelRequest.
    let err = obj.request("block").invoke().unwrap_err();
    assert!(
        err.is_transport(),
        "abandoned exchange is transport-level: {err}"
    );
    started_rx.recv().unwrap(); // the dispatch definitely started
    assert_eq!(client.pending_request_count(ior.node, &ior.endpoint), 0);

    // Give the cancel frame time to reach the server's connection loop,
    // then let the dispatch finish: its reply must be suppressed.
    std::thread::sleep(std::time::Duration::from_millis(50));
    release_tx.send(()).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.cancels_suppressed() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "server never suppressed the cancelled reply"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // The connection survived the whole episode.
    let mut reply = obj.request("ok").invoke().unwrap();
    assert_eq!(reply.read_i32().unwrap(), 1);
}

mod pipelining {
    use super::*;
    use proptest::prelude::*;

    /// Replies after a wall-clock delay derived from the argument, so a
    /// batch of pipelined requests completes in an order unrelated to
    /// submission order.
    struct Scramble;
    impl Servant for Scramble {
        fn repository_id(&self) -> &str {
            "IDL:Rb/Scramble:1.0"
        }
        fn dispatch(
            &self,
            _op: &str,
            args: &mut CdrReader,
            reply: &mut CdrWriter,
            _ctx: &ServerCtx,
        ) -> Result<(), OrbError> {
            let v = args.read_u32()?;
            std::thread::sleep(std::time::Duration::from_millis(u64::from(v % 3)));
            reply.write_u32(v.wrapping_mul(31) ^ 0x5a5a);
            Ok(())
        }
    }

    proptest! {
        #[test]
        fn out_of_order_replies_route_to_their_handles(
            vals in proptest::collection::vec(any::<u32>(), 2..17),
            seed in any::<u64>(),
        ) {
            // Every request rides the same pooled RequestMux connection.
            // Dispatches run concurrently server-side and each sleeps a
            // value-derived amount, so replies come back out of order;
            // handles are then *collected* in a seed-shuffled order, so a
            // handle is routinely consumed while earlier-submitted ones
            // still have parked replies. Each handle must produce exactly
            // its own request's answer.
            let (client, server) = orb_pair();
            let obj = client.object_ref(server.activate(Arc::new(Scramble)));
            let handles: Vec<_> = vals
                .iter()
                .map(|&v| (v, obj.request("scramble").arg_u32(v).submit()))
                .collect();

            // Fisher–Yates on the wait order, driven by the case seed.
            let mut order: Vec<usize> = (0..handles.len()).collect();
            let mut s = seed | 1;
            for i in (1..order.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (s >> 33) as usize % (i + 1));
            }

            let mut results = vec![None; handles.len()];
            let mut pending: Vec<_> = handles.into_iter().map(Some).collect();
            for idx in order {
                let (v, handle) = pending[idx].take().unwrap();
                let mut reply = handle.wait().unwrap();
                results[idx] = Some((v, reply.read_u32().unwrap()));
            }
            for (v, got) in results.into_iter().flatten() {
                prop_assert_eq!(got, v.wrapping_mul(31) ^ 0x5a5a, "cross-routed reply");
            }
        }
    }
}
