//! FastMessages personality: active messages over Circuit.
//!
//! FM-style APIs attach a *handler id* to every message; the receiver's
//! `poll` (FM's `FM_extract`) dispatches each incoming message to the
//! registered handler. The handler id rides in the circuit's opaque
//! transport header, so this adapter adds no bytes to the wire format.

use padico_fabric::Payload;
use parking_lot::Mutex;
use std::collections::HashMap;

use crate::circuit::Circuit;
use crate::error::TmError;

/// Handler callback: `(src_rank, payload)`.
pub type Handler = Box<dyn FnMut(u32, Payload) + Send>;

/// The FastMessages personality over one circuit.
pub struct FmChannel<'a> {
    circuit: &'a Circuit,
    handlers: Mutex<HashMap<u32, Handler>>,
}

impl<'a> FmChannel<'a> {
    pub fn new(circuit: &'a Circuit) -> Self {
        FmChannel {
            circuit,
            handlers: Mutex::new(HashMap::new()),
        }
    }

    /// Register the handler for `handler_id`; replaces any previous one.
    pub fn register(&self, handler_id: u32, handler: Handler) {
        self.handlers.lock().insert(handler_id, handler);
    }

    /// Send `payload` to `dst_rank`, to be dispatched to `handler_id`.
    /// An active message fires immediately (the receiver's handler is
    /// the completion), so each send is its own coalescing barrier.
    pub fn send(&self, dst_rank: usize, handler_id: u32, payload: Payload) -> Result<(), TmError> {
        self.circuit
            .send(dst_rank, u64::from(handler_id), payload)?;
        self.circuit.flush()
    }

    /// Dispatch all currently pending messages; returns how many ran.
    /// Unknown handler ids are a protocol error.
    pub fn poll(&self) -> Result<usize, TmError> {
        let mut dispatched = 0;
        while let Some((src, header, payload)) = self.circuit.try_recv()? {
            self.dispatch(src, header, payload)?;
            dispatched += 1;
        }
        Ok(dispatched)
    }

    /// Block for one message and dispatch it.
    pub fn poll_one(&self) -> Result<(), TmError> {
        let (src, header, payload) = self.circuit.recv()?;
        self.dispatch(src, header, payload)
    }

    fn dispatch(&self, src: u32, header: u64, payload: Payload) -> Result<(), TmError> {
        let id = u32::try_from(header)
            .map_err(|_| TmError::Protocol(format!("handler id {header} out of range")))?;
        let mut handlers = self.handlers.lock();
        match handlers.get_mut(&id) {
            Some(h) => {
                h(src, payload);
                Ok(())
            }
            None => Err(TmError::Protocol(format!("no handler registered for {id}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitSpec;
    use crate::runtime::PadicoTM;
    use padico_fabric::topology::single_cluster;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn circuits() -> Vec<Circuit> {
        let (topo, ids) = single_cluster(2);
        let tms = PadicoTM::boot_all(Arc::new(topo)).unwrap();
        tms.iter()
            .map(|tm| tm.circuit(CircuitSpec::new("fm", ids.clone())).unwrap())
            .collect()
    }

    #[test]
    fn messages_dispatch_to_registered_handlers() {
        let cs = circuits();
        let fm_rx = FmChannel::new(&cs[1]);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        fm_rx.register(
            7,
            Box::new(move |src, p| seen2.lock().push((7u32, src, p.to_vec()))),
        );
        let seen3 = Arc::clone(&seen);
        fm_rx.register(
            8,
            Box::new(move |src, p| seen3.lock().push((8u32, src, p.to_vec()))),
        );

        let fm_tx = FmChannel::new(&cs[0]);
        fm_tx.send(1, 7, Payload::from_vec(vec![1])).unwrap();
        fm_tx.send(1, 8, Payload::from_vec(vec![2])).unwrap();
        fm_rx.poll_one().unwrap();
        fm_rx.poll_one().unwrap();
        let got = seen.lock().clone();
        assert_eq!(got, vec![(7, 0, vec![1]), (8, 0, vec![2])]);
    }

    #[test]
    fn poll_drains_everything_pending() {
        let cs = circuits();
        let fm_rx = FmChannel::new(&cs[1]);
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        fm_rx.register(
            1,
            Box::new(move |_, _| {
                c2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let fm_tx = FmChannel::new(&cs[0]);
        for _ in 0..5 {
            fm_tx.send(1, 1, Payload::from_vec(vec![0])).unwrap();
        }
        // Wait for delivery, then drain.
        let mut drained = 0;
        for _ in 0..200 {
            drained += fm_rx.poll().unwrap();
            if drained == 5 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(drained, 5);
        assert_eq!(count.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn unknown_handler_is_an_error() {
        let cs = circuits();
        let fm_rx = FmChannel::new(&cs[1]);
        let fm_tx = FmChannel::new(&cs[0]);
        fm_tx.send(1, 42, Payload::from_vec(vec![0])).unwrap();
        assert!(matches!(fm_rx.poll_one(), Err(TmError::Protocol(_))));
    }
}
