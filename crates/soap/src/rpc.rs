//! SOAP RPC server and client over PadicoTM.

use padico_tm::module::PadicoModule;
use padico_tm::runtime::PadicoTM;
use padico_tm::selector::FabricChoice;
use padico_tm::vlink::{VLinkListener, VLinkStream};
use padico_tm::TmError;
use padico_util::ids::NodeId;
use padico_util::trace_info;
use std::sync::Arc;

use crate::envelope::{self, Decoded, Fault, SoapValue};
use crate::http;

/// Server-side method handler: `(method, params) → results or fault`.
pub type Handler = Box<
    dyn Fn(&str, &[(String, SoapValue)]) -> Result<Vec<(String, SoapValue)>, Fault>
        + Send
        + Sync,
>;

/// A running SOAP endpoint.
pub struct SoapServer {
    service: String,
    tm: Arc<PadicoTM>,
}

impl SoapServer {
    /// Serve `handler` under the given service name. Handshakes complete
    /// on the node's progress engine; HTTP framing is pull-style, so each
    /// connection gets a serve thread of its own.
    pub fn serve(
        tm: Arc<PadicoTM>,
        service: &str,
        handler: Handler,
    ) -> Result<SoapServer, TmError> {
        let handler = Arc::new(handler);
        VLinkListener::on_accept(&tm, &format!("soap:{service}"), move |stream| {
            let handler = Arc::clone(&handler);
            std::thread::spawn(move || serve_connection(&stream, &handler));
            Ok(())
        })?;
        trace_info!("soap", "{}: SOAP service `{service}` up", tm.node());
        Ok(SoapServer {
            service: service.to_string(),
            tm,
        })
    }

    pub fn service(&self) -> &str {
        &self.service
    }

    /// Stop accepting new connections. Idempotent.
    pub fn shutdown(&self) {
        VLinkListener::off_accept(&self.tm, &format!("soap:{}", self.service));
    }
}

fn serve_connection(stream: &VLinkStream, handler: &Handler) {
    loop {
        let request = match http::read_message(stream) {
            Ok(Some(msg)) => msg,
            Ok(None) | Err(_) => return,
        };
        let reply = match envelope_of(&request) {
            Ok((method, params)) => match handler(&method, &params) {
                Ok(results) => http::ok(envelope::encode_response(&method, &results).into_bytes()),
                Err(fault) => http::server_error(envelope::encode_fault(&fault).into_bytes()),
            },
            Err(fault) => http::server_error(envelope::encode_fault(&fault).into_bytes()),
        };
        if http::write_message(stream, &reply).is_err() {
            return;
        }
    }
}

fn envelope_of(
    request: &http::HttpMessage,
) -> Result<(String, Vec<(String, SoapValue)>), Fault> {
    if !request.start_line.starts_with("POST ") {
        return Err(Fault::client(format!(
            "unsupported request `{}`",
            request.start_line
        )));
    }
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| Fault::client("body is not UTF-8"))?;
    match envelope::decode(text)? {
        Decoded::Call(method, params) => Ok((method, params)),
        Decoded::Fault(f) => Err(f),
    }
}

/// A SOAP client bound to one remote service.
pub struct SoapClient {
    stream: VLinkStream,
    path: String,
}

impl SoapClient {
    /// Connect to `service` on `node` (fabric picked by the selector —
    /// the gSOAP-on-PadicoTM story: sockets that may ride the SAN).
    pub fn connect(
        tm: &Arc<PadicoTM>,
        node: NodeId,
        service: &str,
        choice: FabricChoice,
    ) -> Result<SoapClient, TmError> {
        let stream = tm.vlink_connect(node, &format!("soap:{service}"), choice)?;
        Ok(SoapClient {
            stream,
            path: format!("/{service}"),
        })
    }

    /// Invoke a method; returns the result parameters.
    pub fn call(
        &self,
        method: &str,
        params: &[(String, SoapValue)],
    ) -> Result<Vec<(String, SoapValue)>, Fault> {
        let body = envelope::encode_request(method, params).into_bytes();
        http::write_message(&self.stream, &http::post(&self.path, method, body))
            .map_err(|e| Fault::client(format!("transport: {e}")))?;
        let reply = http::read_message(&self.stream)
            .map_err(|e| Fault::client(format!("transport: {e}")))?
            .ok_or_else(|| Fault::client("server closed the connection"))?;
        let text = std::str::from_utf8(&reply.body)
            .map_err(|_| Fault::client("reply is not UTF-8"))?;
        match envelope::decode(text)? {
            Decoded::Call(name, results) => {
                if name != format!("{method}Response") {
                    return Err(Fault::client(format!(
                        "mismatched response `{name}` for `{method}`"
                    )));
                }
                Ok(results)
            }
            Decoded::Fault(f) => Err(f),
        }
    }
}

/// The loadable middleware module (paper §4.3.4: middleware systems are
/// dynamically loadable PadicoTM modules).
pub struct SoapModule;

impl PadicoModule for SoapModule {
    fn name(&self) -> &str {
        "soap.gsoap"
    }

    fn init(&self, tm: &Arc<PadicoTM>) -> Result<(), TmError> {
        trace_info!("soap", "{}: gSOAP module initialized", tm.node());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padico_fabric::topology::single_cluster;
    use padico_fabric::FabricKind;

    fn grid2() -> Vec<Arc<PadicoTM>> {
        let (topo, _ids) = single_cluster(2);
        PadicoTM::boot_all(Arc::new(topo)).unwrap()
    }

    fn calculator() -> Handler {
        Box::new(|method, params| match method {
            "add" => {
                let mut total = 0i64;
                for (_, v) in params {
                    match v {
                        SoapValue::Int(x) => total += x,
                        other => {
                            return Err(Fault::client(format!("add takes ints, got {other:?}")))
                        }
                    }
                }
                Ok(vec![("sum".into(), SoapValue::Int(total))])
            }
            "checksum" => match &params[0].1 {
                SoapValue::Bytes(b) => Ok(vec![(
                    "sum".into(),
                    SoapValue::Int(b.iter().map(|&x| i64::from(x)).sum()),
                )]),
                other => Err(Fault::client(format!("checksum takes bytes, got {other:?}"))),
            },
            other => Err(Fault::server(format!("no such method `{other}`"))),
        })
    }

    #[test]
    fn call_roundtrip_and_faults() {
        let tms = grid2();
        let _server = SoapServer::serve(Arc::clone(&tms[1]), "calc", calculator()).unwrap();
        let client =
            SoapClient::connect(&tms[0], tms[1].node(), "calc", FabricChoice::Auto).unwrap();
        let results = client
            .call(
                "add",
                &[
                    ("a".into(), SoapValue::Int(40)),
                    ("b".into(), SoapValue::Int(2)),
                ],
            )
            .unwrap();
        assert_eq!(results[0].1, SoapValue::Int(42));
        // Server-declared fault.
        let err = client.call("explode", &[]).unwrap_err();
        assert_eq!(err.code, "Server");
        // Client-side type fault.
        let err = client
            .call("add", &[("a".into(), SoapValue::Str("x".into()))])
            .unwrap_err();
        assert_eq!(err.code, "Client");
        // The connection survives faults.
        let results = client
            .call("add", &[("a".into(), SoapValue::Int(1))])
            .unwrap();
        assert_eq!(results[0].1, SoapValue::Int(1));
    }

    #[test]
    fn soap_rides_the_san_cross_paradigm() {
        // The gSOAP-on-PadicoTM claim: the same SOAP stack, pinned to the
        // Myrinet SAN, moves binary payloads fast (in virtual time).
        let tms = grid2();
        let _server = SoapServer::serve(Arc::clone(&tms[1]), "blob", calculator()).unwrap();
        let client = SoapClient::connect(
            &tms[0],
            tms[1].node(),
            "blob",
            FabricChoice::Kind(FabricKind::Myrinet),
        )
        .unwrap();
        let payload = padico_util::rng::payload(5, "soap", 32 << 10);
        let expected: i64 = payload.iter().map(|&x| i64::from(x)).sum();
        let results = client
            .call("checksum", &[("data".into(), SoapValue::Bytes(payload))])
            .unwrap();
        assert_eq!(results[0].1, SoapValue::Int(expected));
    }

    #[test]
    fn concurrent_clients() {
        let tms = grid2();
        let _server = SoapServer::serve(Arc::clone(&tms[1]), "many", calculator()).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tm = Arc::clone(&tms[0]);
                let node = tms[1].node();
                std::thread::spawn(move || {
                    let client =
                        SoapClient::connect(&tm, node, "many", FabricChoice::Auto).unwrap();
                    for k in 0..5 {
                        let got = client
                            .call("add", &[("v".into(), SoapValue::Int(i * 10 + k))])
                            .unwrap();
                        assert_eq!(got[0].1, SoapValue::Int(i * 10 + k));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn idle_endpoint_keeps_accepting_past_the_default_deadline() {
        let (topo, _ids) = single_cluster(2);
        let cfg = padico_tm::TmConfig {
            default_deadline: std::time::Duration::from_millis(50),
            ..Default::default()
        };
        let tms = PadicoTM::boot_all_with_config(Arc::new(topo), cfg).unwrap();
        let _server = SoapServer::serve(Arc::clone(&tms[1]), "idle", calculator()).unwrap();
        // Three default deadlines of idleness: no accept may time out.
        std::thread::sleep(std::time::Duration::from_millis(150));
        let client =
            SoapClient::connect(&tms[0], tms[1].node(), "idle", FabricChoice::Auto).unwrap();
        let got = client.call("add", &[("v".into(), SoapValue::Int(7))]).unwrap();
        assert_eq!(got[0].1, SoapValue::Int(7));
    }

    #[test]
    fn shutdown_stops_accepting() {
        let (topo, _ids) = single_cluster(2);
        let cfg = padico_tm::TmConfig {
            connect_timeout: std::time::Duration::from_millis(100),
            ..Default::default()
        };
        let tms = PadicoTM::boot_all_with_config(Arc::new(topo), cfg).unwrap();
        let server = SoapServer::serve(Arc::clone(&tms[1]), "gone", calculator()).unwrap();
        server.shutdown();
        server.shutdown();
        let refused = SoapClient::connect(&tms[0], tms[1].node(), "gone", FabricChoice::Auto);
        assert!(refused.is_err(), "no handshake after shutdown");
    }

    #[test]
    fn module_loads_alongside_others() {
        let tms = grid2();
        tms[0].modules().load(&tms[0], Arc::new(SoapModule)).unwrap();
        assert_eq!(
            tms[0].modules().loaded(),
            vec!["soap.gsoap".to_string()]
        );
    }
}
