//! The connection workers: a fixed set of threads blocked in `accept`.
//!
//! The server's concurrency ceiling is the worker count: each worker
//! accepts one connection and handles it to completion before it
//! accepts the next, so at most `threads` requests are in flight and
//! everything else waits in the kernel's listen backlog — admission
//! control by construction, no queue of open sockets in user space. A
//! panicking handler is caught and counted rather than allowed to kill
//! its worker: a long-running daemon cannot afford to leak capacity one
//! panic at a time.
//!
//! No worker ever waits on a timer. [`Workers::stop`] sets the latch
//! and then connects to the listener once per worker; an idle worker
//! wakes with that connection in hand, sees the latch and exits.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Pause after a failed `accept` (`EMFILE`, `ENOBUFS`): the condition
/// outlives the call, and retrying at once would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);
/// Bound on one wake-up connect. A connect can only stall on a full
/// backlog, and then no worker is idle in `accept` to need it.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// `threads` workers sharing one listener, stopped by [`stop`](Self::stop)
/// or drop.
pub(crate) struct Workers {
    wake_addr: SocketAddr,
    latch: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl Workers {
    /// Start `threads` workers (at least one) on clones of `listener`,
    /// which must be blocking; `handle` runs once per accepted
    /// connection. `latch` is the stop signal, shared so the caller's
    /// other threads can watch it.
    pub(crate) fn start<F>(
        listener: TcpListener,
        threads: usize,
        latch: Arc<AtomicBool>,
        handle: F,
    ) -> std::io::Result<Workers>
    where
        F: Fn(TcpStream) + Send + Sync + 'static,
    {
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // Built before the first spawn so that an error below drops it,
        // which stops the workers already running.
        let mut workers = Workers {
            wake_addr,
            latch,
            handles: Vec::new(),
        };
        let handle = Arc::new(handle);
        let inflight = Arc::new(AtomicU64::new(0));
        for i in 0..threads.max(1) {
            let listener = listener.try_clone()?;
            let latch = Arc::clone(&workers.latch);
            let handle = Arc::clone(&handle);
            let inflight = Arc::clone(&inflight);
            workers.handles.push(
                std::thread::Builder::new()
                    .name(format!("memgaze-serve-{i}"))
                    .spawn(move || worker_loop(&listener, &latch, &inflight, &*handle))?,
            );
        }
        Ok(workers)
    }

    /// Stop accepting and wait for every connection in flight to finish.
    /// A busy worker leaves its wake-up in the backlog, which closes
    /// with the listener when the last worker exits.
    pub(crate) fn stop(&mut self) {
        self.latch.store(true, Ordering::SeqCst);
        for _ in &self.handles {
            let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(
    listener: &TcpListener,
    latch: &AtomicBool,
    inflight: &AtomicU64,
    handle: &impl Fn(TcpStream),
) {
    while !latch.load(Ordering::SeqCst) {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        // Whatever arrives once the latch is set — a wake-up, or a
        // client that lost the race with the drain — is dropped.
        if latch.load(Ordering::SeqCst) {
            return;
        }
        let gauge = memgaze_obs::gauge!("serve.inflight");
        gauge.set(inflight.fetch_add(1, Ordering::Relaxed) + 1);
        if std::panic::catch_unwind(AssertUnwindSafe(|| handle(stream))).is_err() {
            memgaze_obs::counter!("serve.handler_panics").add(1);
        }
        gauge.set(inflight.fetch_sub(1, Ordering::Relaxed) - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// One byte in, the same byte back; `b'!'` is a handler bug.
    fn echo_or_panic(mut stream: TcpStream) {
        let mut byte = [0u8; 1];
        stream.read_exact(&mut byte).expect("request byte");
        assert_ne!(byte[0], b'!', "handler bug");
        stream.write_all(&byte).expect("reply byte");
    }

    fn exchange(addr: SocketAddr, byte: u8) -> Option<u8> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&[byte]).expect("send");
        let mut reply = [0u8; 1];
        stream.read_exact(&mut reply).ok().map(|()| reply[0])
    }

    #[test]
    fn panicking_handler_does_not_shrink_capacity() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut workers =
            Workers::start(listener, 2, Arc::default(), echo_or_panic).expect("start");
        // Eight panics on two workers: each connection closes unanswered.
        for _ in 0..8 {
            assert_eq!(exchange(addr, b'!'), None);
        }
        // Both workers must still be there: with two connections open,
        // the one that connected second is answered while the first
        // still holds its worker.
        let mut held: Vec<TcpStream> = (0..2)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        held.reverse();
        for (i, mut stream) in held.into_iter().enumerate() {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            stream.write_all(&[b'a' + i as u8]).expect("send");
            let mut reply = [0u8; 1];
            stream.read_exact(&mut reply).expect("reply");
            assert_eq!(reply[0], b'a' + i as u8);
        }
        workers.stop();
        assert!(
            TcpStream::connect(addr).is_err(),
            "listener outlived its workers"
        );
    }
}
