//! BSD-socket personality: an fd-table socket API over VLink.
//!
//! This is the adapter that lets socket-based middleware (an ORB's
//! transport, gSOAP) run on PadicoTM unchanged: `socket`, `bind`,
//! `listen`, `accept`, `connect`, `send`, `recv`, `close` — with integer
//! descriptors — mapped 1:1 onto VLink operations. Addresses are
//! `(NodeId, service-name)` pairs instead of IP/port, which is the only
//! visible difference from the kernel API.

use padico_util::ids::NodeId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::TmError;
use crate::runtime::PadicoTM;
use crate::selector::FabricChoice;
use crate::vlink::{VLinkListener, VLinkStream};

/// Socket descriptor.
pub type Fd = u32;

enum SocketState {
    /// `socket()` called, nothing else yet.
    Fresh,
    /// `bind()` called.
    Bound(String),
    /// `listen()` called.
    Listening(VLinkListener),
    /// Connected (via `connect` or `accept`).
    Connected(Arc<VLinkStream>),
}

/// A per-node socket API instance (one per middleware is fine; descriptors
/// are local to the instance, like per-process fd tables).
pub struct SocketApi {
    tm: Arc<PadicoTM>,
    table: Mutex<HashMap<Fd, SocketState>>,
    next_fd: Mutex<Fd>,
}

impl SocketApi {
    pub fn new(tm: Arc<PadicoTM>) -> Self {
        SocketApi {
            tm,
            table: Mutex::new(HashMap::new()),
            next_fd: Mutex::new(3), // 0..2 reserved, as tradition demands
        }
    }

    /// Create a socket.
    pub fn socket(&self) -> Fd {
        let mut next = self.next_fd.lock();
        let fd = *next;
        *next += 1;
        self.table.lock().insert(fd, SocketState::Fresh);
        fd
    }

    /// Bind to a local service name.
    pub fn bind(&self, fd: Fd, service: &str) -> Result<(), TmError> {
        let mut table = self.table.lock();
        match table.get(&fd) {
            Some(SocketState::Fresh) => {
                table.insert(fd, SocketState::Bound(service.to_string()));
                Ok(())
            }
            Some(_) => Err(TmError::Protocol(format!("fd {fd} not in fresh state"))),
            None => Err(TmError::Protocol(format!("bad fd {fd}"))),
        }
    }

    /// Start listening on a bound socket.
    pub fn listen(&self, fd: Fd) -> Result<(), TmError> {
        let service = {
            let table = self.table.lock();
            match table.get(&fd) {
                Some(SocketState::Bound(s)) => s.clone(),
                Some(_) => return Err(TmError::Protocol(format!("fd {fd} not bound"))),
                None => return Err(TmError::Protocol(format!("bad fd {fd}"))),
            }
        };
        let listener = self.tm.vlink_listen(&service)?;
        self.table
            .lock()
            .insert(fd, SocketState::Listening(listener));
        Ok(())
    }

    /// Accept a connection; returns a new connected descriptor.
    ///
    /// The listener is temporarily moved out of the fd table so the table
    /// lock is not held across the blocking wait (other descriptors stay
    /// usable; a concurrent `accept` on the same fd observes "not
    /// listening", mirroring EINVAL).
    pub fn accept(&self, fd: Fd) -> Result<Fd, TmError> {
        let listener = {
            let mut table = self.table.lock();
            match table.remove(&fd) {
                Some(SocketState::Listening(l)) => l,
                other => {
                    if let Some(st) = other {
                        table.insert(fd, st);
                    }
                    return Err(TmError::Protocol(format!("fd {fd} not listening")));
                }
            }
        };
        let result = listener.accept();
        self.table
            .lock()
            .insert(fd, SocketState::Listening(listener));
        let stream = result?;
        let new_fd = self.socket();
        self.table
            .lock()
            .insert(new_fd, SocketState::Connected(Arc::new(stream)));
        Ok(new_fd)
    }

    /// Connect to `(node, service)`.
    pub fn connect(&self, fd: Fd, node: NodeId, service: &str) -> Result<(), TmError> {
        {
            let table = self.table.lock();
            match table.get(&fd) {
                Some(SocketState::Fresh) => {}
                Some(_) => return Err(TmError::Protocol(format!("fd {fd} not fresh"))),
                None => return Err(TmError::Protocol(format!("bad fd {fd}"))),
            }
        }
        let stream = self.tm.vlink_connect(node, service, FabricChoice::Auto)?;
        self.table
            .lock()
            .insert(fd, SocketState::Connected(Arc::new(stream)));
        Ok(())
    }

    fn stream(&self, fd: Fd) -> Result<Arc<VLinkStream>, TmError> {
        let table = self.table.lock();
        match table.get(&fd) {
            Some(SocketState::Connected(s)) => Ok(Arc::clone(s)),
            Some(_) => Err(TmError::Protocol(format!("fd {fd} not connected"))),
            None => Err(TmError::Protocol(format!("bad fd {fd}"))),
        }
    }

    /// Send all of `data`; returns the byte count, faithful to the API.
    /// Like the kernel call, it hands the bytes on before returning: a
    /// peer may wait for them with no further call on this descriptor,
    /// so a coalesced frame is flushed, not left for a later write.
    pub fn send(&self, fd: Fd, data: &[u8]) -> Result<usize, TmError> {
        let stream = self.stream(fd)?;
        stream.write_all(data)?;
        stream.flush()?;
        Ok(data.len())
    }

    /// Receive up to `buf.len()` bytes; 0 means the peer closed.
    pub fn recv(&self, fd: Fd, buf: &mut [u8]) -> Result<usize, TmError> {
        self.stream(fd)?.read(buf)
    }

    /// Close a descriptor (any state).
    pub fn close(&self, fd: Fd) -> Result<(), TmError> {
        match self.table.lock().remove(&fd) {
            Some(SocketState::Connected(s)) => {
                let _ = s.close();
                Ok(())
            }
            Some(_) => Ok(()),
            None => Err(TmError::Protocol(format!("bad fd {fd}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use padico_fabric::topology::single_cluster;

    fn apis() -> (SocketApi, SocketApi, NodeId) {
        let (topo, ids) = single_cluster(2);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        (
            SocketApi::new(Arc::clone(&tms[0])),
            SocketApi::new(Arc::clone(&tms[1])),
            ids[1],
        )
    }

    #[test]
    fn classic_socket_lifecycle() {
        let (client, server, server_node) = apis();
        let server = Arc::new(server);
        let srv = Arc::clone(&server);
        let lfd = server.socket();
        server.bind(lfd, "daytime").unwrap();
        server.listen(lfd).unwrap();
        let handle = std::thread::spawn(move || {
            let cfd = srv.accept(lfd).unwrap();
            let mut buf = [0u8; 4];
            let n = srv.recv(cfd, &mut buf).unwrap();
            srv.send(cfd, &buf[..n]).unwrap();
            srv.close(cfd).unwrap();
        });
        let fd = client.socket();
        client.connect(fd, server_node, "daytime").unwrap();
        assert_eq!(client.send(fd, b"ping").unwrap(), 4);
        let mut reply = [0u8; 4];
        let mut got = 0;
        while got < 4 {
            let n = client.recv(fd, &mut reply[got..]).unwrap();
            assert!(n > 0);
            got += n;
        }
        assert_eq!(&reply, b"ping");
        client.close(fd).unwrap();
        handle.join().unwrap();
    }

    /// A server that echoes and then neither writes, reads nor closes
    /// again: the echo must still reach the client. With the frame left
    /// in the coalescing batch the client's `recv` timed out.
    #[test]
    fn send_reaches_a_peer_without_a_further_call() {
        let (topo, ids) = single_cluster(2);
        let cfg = crate::runtime::TmConfig {
            default_deadline: std::time::Duration::from_secs(5),
            ..Default::default()
        };
        let tms = PadicoTM::boot_all_with_config(Arc::new(topo), cfg).unwrap();
        assert!(tms[1].config().coalesce, "coalescing is on");
        let server = Arc::new(SocketApi::new(Arc::clone(&tms[1])));
        let lfd = server.socket();
        server.bind(lfd, "echo").unwrap();
        server.listen(lfd).unwrap();
        let srv = Arc::clone(&server);
        let echo = std::thread::spawn(move || {
            let cfd = srv.accept(lfd).unwrap();
            let mut buf = [0u8; 16];
            let n = srv.recv(cfd, &mut buf).unwrap();
            srv.send(cfd, &buf[..n]).unwrap();
            cfd // still open: nothing else pushes the echo out
        });
        let client = SocketApi::new(Arc::clone(&tms[0]));
        let fd = client.socket();
        client.connect(fd, ids[1], "echo").unwrap();
        client.send(fd, b"what time is it").unwrap();
        let mut buf = [0u8; 16];
        let n = client.recv(fd, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"what time is it");
        echo.join().unwrap();
    }

    #[test]
    fn state_machine_violations_rejected() {
        let (api, _other, node) = apis();
        let fd = api.socket();
        // listen before bind
        assert!(api.listen(fd).is_err());
        // send on unconnected socket
        assert!(api.send(fd, b"x").is_err());
        api.bind(fd, "svc").unwrap();
        // double bind
        assert!(api.bind(fd, "svc2").is_err());
        // connect on a bound socket
        assert!(api.connect(fd, node, "svc").is_err());
        // bad fd everywhere
        assert!(api.close(999).is_err());
        assert!(api.recv(999, &mut [0; 1]).is_err());
    }

    #[test]
    fn close_is_final() {
        let (api, _other, _node) = apis();
        let fd = api.socket();
        api.close(fd).unwrap();
        assert!(api.close(fd).is_err(), "double close detected");
    }
}
