//! # padico-control — the ORB-served introspection service
//!
//! Padico's design stresses runtime dynamicity: modules can be inspected
//! and steered *while the grid application runs*, through the same
//! invocation paths the application itself uses. This crate is that idea
//! applied to observability: a [`ControlServant`] activated on any
//! node's ORB exposes the flight recorder — merged metrics, virtual-time
//! telemetry windows, span buffers, scheduler lane telemetry — as a
//! GIOP-reachable object, and a [`ControlClient`] polls it from anywhere
//! a stringified IOR can travel. The stack observes itself through its
//! own stack; `examples/world_dashboard.rs` renders the result as a
//! live text dashboard.
//!
//! ## Operations
//!
//! | op         | in            | out                                        |
//! |------------|---------------|--------------------------------------------|
//! | `ping`     | —             | node id, virtual clock now                 |
//! | `snapshot` | —             | deterministic text render of the full
//! |            |               | observability snapshot (metrics, windows,
//! |            |               | breaker/admission/pool counters, spans)    |
//! | `trace`    | trace id      | canonical dump of that causal tree         |
//! | `dump`     | —             | the flight-recorder Perfetto JSON          |
//! | `windows`  | series name   | the series' occupied vt windows            |
//!
//! Every operation is read-only and idempotent, so the client issues
//! them with the ORB's idempotent retry discipline: polling a dashboard
//! over a lossy fabric rides the same recovery machinery as any other
//! traffic — and shows up in the very counters it is reading.

use padico_core::observability::ObservabilitySnapshot;
use padico_orb::cdr::{CdrReader, CdrWriter};
use padico_orb::{Ior, ObjectRef, Orb, OrbError, Servant, ServerCtx};
use padico_tm::PadicoTM;
use padico_util::simtime::Vt;
use std::sync::Arc;

/// Repository id of the control interface.
pub const CONTROL_REPO_ID: &str = "IDL:Padico/Control:1.0";

/// One occupied virtual-time window of a named series, as returned by
/// [`ControlClient::windows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowRow {
    /// Window index: the window covers `[index*window_ns, (index+1)*window_ns)`.
    pub index: u64,
    pub count: u64,
    pub sum: u64,
}

/// The windows of one series plus its geometry and loss counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeriesWindows {
    pub window_ns: u64,
    pub dropped_samples: u64,
    pub evicted_windows: u64,
    pub rows: Vec<WindowRow>,
}

/// The introspection servant: activate one per node you want to watch.
pub struct ControlServant {
    tm: Arc<PadicoTM>,
}

impl ControlServant {
    pub fn new(tm: Arc<PadicoTM>) -> Arc<ControlServant> {
        Arc::new(ControlServant { tm })
    }

    /// The world this servant's node booted in.
    fn capture(&self) -> ObservabilitySnapshot {
        ObservabilitySnapshot::capture(self.tm.topology())
    }

    /// The text form served by `snapshot`: a scheduler header followed by
    /// the full observability render.
    fn snapshot_text(&self) -> String {
        let s = self.tm.topology().sched().stats();
        let mut out = format!(
            "sched: posted={} delivered={} steals={} pending={} horizon_ns={} \
             workers={} shards={} lane_samples={} lane_dropped={}\n",
            s.posted,
            s.delivered,
            s.steals,
            s.pending,
            s.horizon,
            s.workers,
            s.shards,
            s.lane_samples,
            s.lane_dropped
        );
        out.push_str(&self.capture().render());
        out
    }
}

impl Servant for ControlServant {
    fn repository_id(&self) -> &str {
        CONTROL_REPO_ID
    }

    fn dispatch(
        &self,
        operation: &str,
        args: &mut CdrReader,
        reply: &mut CdrWriter,
        _ctx: &ServerCtx,
    ) -> Result<(), OrbError> {
        match operation {
            "ping" => {
                reply.write_u32(self.tm.node().0);
                reply.write_u64(self.tm.clock().now());
                Ok(())
            }
            "snapshot" => {
                reply.write_string(&self.snapshot_text());
                Ok(())
            }
            "trace" => {
                let trace_id = args.read_u64()?;
                let snap = self.capture();
                reply.write_string(&padico_util::span::canonical_dump(&snap.trace(trace_id)));
                Ok(())
            }
            "dump" => {
                reply.write_string(&self.capture().flight_recorder_json());
                Ok(())
            }
            "windows" => {
                let name = args.read_string()?;
                let ts = self.tm.telemetry().timeseries();
                match ts.series(&name) {
                    Some(series) => {
                        reply.write_u64(series.window_ns);
                        reply.write_u64(series.dropped_samples);
                        reply.write_u64(series.evicted_windows);
                        let occupied = series.occupied();
                        reply.write_u32(occupied.len() as u32);
                        for (index, w) in occupied {
                            reply.write_u64(index);
                            reply.write_u64(w.count);
                            reply.write_u64(w.sum);
                        }
                    }
                    None => {
                        reply.write_u64(0);
                        reply.write_u64(0);
                        reply.write_u64(0);
                        reply.write_u32(0);
                    }
                }
                Ok(())
            }
            other => Err(OrbError::BadOperation(other.into())),
        }
    }
}

/// Activate a [`ControlServant`] for `orb`'s node and return its IOR.
pub fn serve(orb: &Orb) -> Ior {
    orb.activate(ControlServant::new(Arc::clone(orb.tm())))
}

/// Client handle over the control object: typed wrappers around the
/// five operations, all issued idempotent.
pub struct ControlClient {
    obj: ObjectRef,
}

impl ControlClient {
    /// Wrap an IOR obtained from [`serve`] (possibly stringified and
    /// shipped) into a client handle on `orb`.
    pub fn attach(orb: &Arc<Orb>, ior: Ior) -> ControlClient {
        ControlClient {
            obj: orb.object_ref(ior),
        }
    }

    /// Round-trip liveness probe: the served node's id and virtual time.
    pub fn ping(&self) -> Result<(u32, Vt), OrbError> {
        let mut r = self.obj.request("ping").idempotent().invoke()?;
        Ok((r.read_u32()?, r.read_u64()?))
    }

    /// The full observability snapshot, rendered as deterministic text.
    pub fn snapshot(&self) -> Result<String, OrbError> {
        self.obj
            .request("snapshot")
            .idempotent()
            .invoke()?
            .read_string()
    }

    /// Canonical dump of one causal tree.
    pub fn trace(&self, trace_id: u64) -> Result<String, OrbError> {
        self.obj
            .request("trace")
            .idempotent()
            .arg_u64(trace_id)
            .invoke()?
            .read_string()
    }

    /// The flight-recorder Perfetto JSON export.
    pub fn dump(&self) -> Result<String, OrbError> {
        self.obj
            .request("dump")
            .idempotent()
            .invoke()?
            .read_string()
    }

    /// One overview fetch: `ping` and `snapshot` submitted back-to-back
    /// on the pooled connection — the two requests pipeline over a
    /// single stream and their replies route back by request id — then
    /// collected together. Returns `(node, virtual now, snapshot text)`.
    pub fn overview(&self) -> Result<(u32, Vt, String), OrbError> {
        let ping = self.obj.request("ping").idempotent().submit();
        let snap = self.obj.request("snapshot").idempotent().submit();
        let mut p = ping.wait()?;
        let node = p.read_u32()?;
        let now = p.read_u64()?;
        let snapshot = snap.wait()?.read_string()?;
        Ok((node, now, snapshot))
    }

    /// The occupied virtual-time windows of one timeseries on the
    /// served node (empty when the series does not exist there).
    pub fn windows(&self, series: &str) -> Result<SeriesWindows, OrbError> {
        let mut r = self
            .obj
            .request("windows")
            .idempotent()
            .arg_string(series)
            .invoke()?;
        let window_ns = r.read_u64()?;
        let dropped_samples = r.read_u64()?;
        let evicted_windows = r.read_u64()?;
        let n = r.read_u32()?;
        let mut rows = Vec::with_capacity(n as usize);
        for _ in 0..n {
            rows.push(WindowRow {
                index: r.read_u64()?,
                count: r.read_u64()?,
                sum: r.read_u64()?,
            });
        }
        Ok(SeriesWindows {
            window_ns,
            dropped_samples,
            evicted_windows,
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padico_fabric::topology::single_cluster;
    use padico_fabric::FabricKind;
    use padico_orb::OrbProfile;
    use padico_tm::selector::FabricChoice;

    fn control_pair() -> (Arc<Orb>, Arc<Orb>) {
        let (topo, _ids) = single_cluster(2);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        let client = Orb::start(
            Arc::clone(&tms[0]),
            "dashboard",
            OrbProfile::omniorb3(),
            FabricChoice::Kind(FabricKind::Myrinet),
        )
        .unwrap();
        let server = Orb::start(
            Arc::clone(&tms[1]),
            "world",
            OrbProfile::omniorb3(),
            FabricChoice::Kind(FabricKind::Myrinet),
        )
        .unwrap();
        (client, server)
    }

    #[test]
    fn control_service_answers_over_giop() {
        let (client_orb, server_orb) = control_pair();
        let ior = serve(&server_orb);

        // Stringify + re-parse the IOR: the dashboard path in real use.
        let obj_ior = client_orb
            .string_to_object(&ior.stringify())
            .map(|_| ior.clone())
            .unwrap();
        let client = ControlClient::attach(&client_orb, obj_ior);

        let (node, vt) = client.ping().unwrap();
        assert_eq!(node, server_orb.node().0);
        assert!(vt > 0, "served clock should have advanced past boot");

        // Generate some activity so the snapshot has something to show.
        let telemetry = server_orb.tm().telemetry();
        telemetry.bump("orb.admission.shed", 1_500_000);
        telemetry.bump("orb.admission.shed", 1_600_000);
        telemetry.record("sched.delivered", 2_500_000, 32);

        let snap = client.snapshot().unwrap();
        assert!(snap.contains("timeseries"), "snapshot render: {snap}");
        assert!(snap.contains("orb.admission.shed"));

        let w = client.windows("orb.admission.shed").unwrap();
        assert_eq!(w.rows.iter().map(|r| r.count).sum::<u64>(), 2);
        assert!(w.window_ns > 0);

        let missing = client.windows("no.such.series").unwrap();
        assert_eq!(missing.rows.len(), 0);
        assert_eq!(missing.window_ns, 0);

        let json = client.dump().unwrap();
        assert!(json.contains("traceEvents"));
        assert!(json.contains("ts.orb.admission.shed"));

        client_orb.shutdown();
        server_orb.shutdown();
    }

    #[test]
    fn trace_op_returns_a_causal_tree() {
        let (client_orb, server_orb) = control_pair();
        let ior = serve(&server_orb);
        let client = ControlClient::attach(&client_orb, ior);

        // Plant a span tree with a known trace id in the served world.
        let clock = padico_util::simtime::SimClock::starting_at(1_000);
        let trace_id = 0xC0FFEE;
        {
            let _root = padico_util::span::root(
                server_orb.tm().telemetry(),
                &clock,
                7,
                trace_id,
                "orb",
                "invoke:probe",
            );
            clock.advance(100);
            let _child = padico_util::span::child(&clock, 7, "orb", "marshal");
            clock.advance(50);
        }

        let dump = client.trace(trace_id).unwrap();
        assert!(dump.contains("invoke:probe"), "dump: {dump}");
        assert!(dump.contains("marshal"));

        let empty = client.trace(u64::MAX).unwrap();
        assert!(!empty.contains("invoke:probe"));

        let err = client
            .obj
            .request("frobnicate")
            .invoke()
            .expect_err("unknown op must raise BAD_OPERATION");
        // The servant-side BadOperation crosses the wire as a system
        // exception carrying the original minor text.
        assert!(format!("{err}").contains("BAD_OPERATION"), "got {err:?}");

        client_orb.shutdown();
        server_orb.shutdown();
    }
}
