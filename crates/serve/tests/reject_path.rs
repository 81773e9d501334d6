//! The admission reject path: a full queue answers `429` the moment a
//! connection lands, and a flood of rejections costs a fixed number of
//! threads, not one per rejected connection.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use tableseg_serve::{Server, ServerConfig};

/// A server that sheds all load: every connection is rejected.
fn zero_depth_server() -> Server {
    Server::start(ServerConfig {
        workers: 1,
        queue_depth: 0,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

/// Reads one rejected connection to EOF and returns the response head.
fn read_rejection(stream: &mut TcpStream) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read rejection");
    String::from_utf8_lossy(&raw).into_owned()
}

fn connect(addr: SocketAddr) -> TcpStream {
    TcpStream::connect(addr).expect("connect")
}

#[test]
fn silent_client_gets_429_well_under_read_timeout() {
    let server = zero_depth_server();
    let read_timeout = ServerConfig::default().read_timeout;
    let started = Instant::now();
    // The client sends nothing: the rejection must not wait for a request.
    let mut stream = connect(server.addr());
    let head = read_rejection(&mut stream);
    let elapsed = started.elapsed();
    assert!(head.starts_with("HTTP/1.1 429 "), "got: {head}");
    assert!(
        elapsed < Duration::from_secs(1),
        "429 took {elapsed:?} (read_timeout {read_timeout:?})"
    );
    server.shutdown();
}

/// Threads of this test process.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list threads")
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn rejection_burst_keeps_thread_count_bounded() {
    /// Headroom for the harness and a sibling test's server starting or
    /// stopping concurrently; a thread per rejection would need 100.
    const SLACK: usize = 16;
    let server = zero_depth_server();
    let baseline = thread_count();
    let mut conns: Vec<TcpStream> = (0..100).map(|_| connect(server.addr())).collect();
    let mut peak = thread_count();
    for stream in &mut conns {
        let head = read_rejection(stream);
        assert!(head.starts_with("HTTP/1.1 429 "), "got: {head}");
        peak = peak.max(thread_count());
    }
    assert!(
        peak <= baseline + SLACK,
        "thread count grew from {baseline} to {peak} under 100 rejections"
    );
    server.shutdown();
}
