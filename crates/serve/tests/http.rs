//! End-to-end socket tests for `vpir serve`: real TCP connections
//! against a live [`Server`] on an ephemeral port.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use vpir_serve::{ServeConfig, Server};

/// One HTTP exchange over a fresh connection that the server closes
/// afterwards (the request carries `Connection: close`): returns the
/// status code, the raw header block, and the body.
fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    stream.write_all(raw).expect("write");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let text = String::from_utf8(response).expect("utf8 response");
    split_response(&text)
}

fn split_response(text: &str) -> (u16, String, String) {
    let (head, body) = text.split_once("\r\n\r\n").expect("response head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_string(), body.to_string())
}

/// Reads exactly one response (by its `Content-Length`) from an open
/// keep-alive connection. `buf` carries any bytes of the *next*
/// pipelined response that arrived in the same read.
fn read_one_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (u16, String, String) {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "connection closed before a full response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).expect("utf8 head");
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length header");
    let body_start = head_end + 4;
    while buf.len() < body_start + content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[body_start..body_start + content_length].to_vec())
        .expect("utf8 body");
    buf.drain(..body_start + content_length);
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head, body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    exchange(addr, raw.as_bytes())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn shutdown(addr: SocketAddr) {
    let (status, _, _) = post(addr, "/v1/shutdown", "{}");
    assert_eq!(status, 200, "shutdown must be acknowledged");
}

fn small_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        default_max_cycles: 100_000,
        ..ServeConfig::default()
    }
}

#[test]
fn run_roundtrip_cache_hit_metrics_and_graceful_shutdown() {
    let server = Server::start(small_config(2)).expect("start");
    let addr = server.addr();

    let (status, _, health) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(health, "{\"ok\": true, \"draining\": false, \"state\": \"healthy\"}");

    let request = "{\"bench\": \"compress\", \"max_cycles\": 50000}";
    let (status, miss_head, miss_body) = post(addr, "/v1/run", request);
    assert_eq!(status, 200, "miss body: {miss_body}");
    assert!(miss_head.contains("X-Cache: miss"), "{miss_head}");
    assert!(miss_body.contains("\"schema\": \"vpir-serve-run-v1\""), "{miss_body}");

    let (status, hit_head, hit_body) = post(addr, "/v1/run", request);
    assert_eq!(status, 200);
    assert!(hit_head.contains("X-Cache: hit"), "{hit_head}");
    assert_eq!(miss_body, hit_body, "cache hit must be byte-identical to the miss");

    let (status, head, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: text/plain; version=0.0.4"), "{head}");
    assert!(metrics.contains("vpir_cache_hits_total 1"), "{metrics}");
    assert!(metrics.contains("vpir_cache_misses_total 1"), "{metrics}");
    assert!(metrics.contains("vpir_runs_completed_total 1"), "{metrics}");
    assert!(metrics.contains("# TYPE vpir_sim_cycles_total counter"), "{metrics}");
    assert!(metrics.contains("vpir_shed_state 0"), "{metrics}");
    assert!(metrics.contains("vpir_latency_run_count 2"), "{metrics}");

    shutdown(addr);
    server.join();
    // After shutdown the listener is gone: connecting must fail (or be
    // reset before a response arrives).
    assert!(TcpStream::connect(addr).is_err() || get_refused(addr));
}

fn get_refused(addr: SocketAddr) -> bool {
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => return true,
    };
    let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut buf = Vec::new();
    match stream.read_to_end(&mut buf) {
        Ok(0) => true,
        Ok(_) => false,
        Err(_) => true,
    }
}

#[test]
fn a_keep_alive_connection_serves_sequential_and_pipelined_requests() {
    let server = Server::start(small_config(1)).expect("start");
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut carry: Vec<u8> = Vec::new();

    // Sequential reuse: three requests, one connection.
    for _ in 0..3 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("write");
        let (status, head, body) = read_one_response(&mut stream, &mut carry);
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
    }

    // Pipelining: two requests in a single write, answered in order.
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        .expect("write pipelined");
    let (status, _, body) = read_one_response(&mut stream, &mut carry);
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\": true"), "first answer is healthz: {body}");
    let (status, _, body) = read_one_response(&mut stream, &mut carry);
    assert_eq!(status, 200);
    assert!(body.contains("vpir_requests_total"), "second answer is metrics: {body}");

    // One connection, five requests.
    assert!(body.contains("vpir_connections_total 1"), "{body}");

    // `Connection: close` is honored mid-stream.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("write close");
    let (status, head, _) = read_one_response(&mut stream, &mut carry);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "{head}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("drained");
    assert!(rest.is_empty(), "server closed cleanly after Connection: close");

    shutdown(addr);
    server.join();
}

#[test]
fn a_slowloris_client_gets_408_not_a_wedged_worker() {
    let cfg = ServeConfig {
        workers: 1,
        read_deadline: Duration::from_millis(100),
        idle_timeout: Duration::from_millis(2000),
        ..small_config(1)
    };
    let server = Server::start(cfg).expect("start");
    let addr = server.addr();

    // Send a partial request head and stall. The server must answer
    // 408 within the read deadline and close — and stay fully
    // responsive to other clients afterwards.
    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    slow.write_all(b"POST /v1/run HTTP/1.1\r\nContent-Le").expect("partial write");
    let mut response = Vec::new();
    slow.read_to_end(&mut response).expect("read");
    let text = String::from_utf8(response).expect("utf8");
    let (status, head, _) = split_response(&text);
    assert_eq!(status, 408, "{head}");
    assert!(head.contains("Connection: close"), "{head}");

    // A stall mid-body is also bounded.
    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    slow.write_all(b"POST /v1/run HTTP/1.1\r\nContent-Length: 400\r\n\r\n{\"bench\"")
        .expect("partial body");
    let mut response = Vec::new();
    slow.read_to_end(&mut response).expect("read");
    let (status, _, _) = split_response(&String::from_utf8(response).expect("utf8"));
    assert_eq!(status, 408);

    // The worker pool was never involved; the server still answers.
    let (status, _, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("vpir_slow_client_timeouts_total 2"), "{metrics}");

    // An idle connection that never sends anything is closed quietly
    // after the idle timeout, with no 408 and no error response.
    let mut idle = TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut buf = Vec::new();
    idle.read_to_end(&mut buf).expect("idle close");
    assert!(buf.is_empty(), "idle close carries no response bytes");

    shutdown(addr);
    server.join();
}

#[test]
fn worker_count_does_not_change_a_single_byte() {
    let server1 = Server::start(small_config(1)).expect("start workers=1");
    let server4 = Server::start(small_config(4)).expect("start workers=4");

    // A mixed bag: different configs, programs, and a trace request.
    let requests = [
        "{\"bench\": \"compress\", \"max_cycles\": 40000}".to_string(),
        "{\"bench\": \"compress\", \"config\": \"ir_early\", \"max_cycles\": 40000}".to_string(),
        "{\"bench\": \"compress\", \"config\": \"magic:ME-SB:vl1\", \"max_cycles\": 40000}"
            .to_string(),
        "{\"bench\": \"compress\", \"config\": \"rtb:t8\", \"max_cycles\": 40000}".to_string(),
        "{\"asm\": \"li r1, 3\\naddi r1, r1, 4\\nhalt\", \"trace\": 16}".to_string(),
    ];
    for request in &requests {
        let (s1, _, body1) = post(server1.addr(), "/v1/run", request);
        let (s4, _, body4) = post(server4.addr(), "/v1/run", request);
        assert_eq!(s1, 200, "{request}: {body1}");
        assert_eq!(s4, 200, "{request}: {body4}");
        assert_eq!(body1, body4, "workers=1 and workers=4 must agree on {request}");
    }

    shutdown(server1.addr());
    shutdown(server4.addr());
    server1.join();
    server4.join();
}

#[test]
fn malformed_requests_get_structured_errors_over_the_wire() {
    let server = Server::start(small_config(1)).expect("start");
    let addr = server.addr();

    let (status, _, body) = get(addr, "/nope");
    assert_eq!(status, 404, "{body}");

    let (status, head, _) = exchange(addr, b"DELETE /v1/run HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: POST"), "{head}");

    let (status, _, body) = post(addr, "/v1/run", "{not json");
    assert_eq!(status, 400);
    assert!(body.contains("bad JSON"), "{body}");

    let (status, _, _) = exchange(addr, b"POST /v1/run HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status, 411);

    let (status, _, body) = exchange(
        addr,
        b"POST /v1/run HTTP/1.1\r\nHost: t\r\nContent-Length: 99999999\r\n\r\n",
    );
    assert_eq!(status, 413, "{body}");

    shutdown(addr);
    server.join();
}

#[test]
fn a_full_queue_answers_503_with_retry_after() {
    // Zero workers (API-only configuration): nothing drains the queue,
    // so backpressure is deterministic.
    let cfg = ServeConfig {
        workers: 0,
        queue_capacity: 1,
        request_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("start");
    let addr = server.addr();

    // The first miss occupies the single queue slot; its connection
    // blocks waiting for a worker that never comes, so issue it from a
    // helper thread.
    let blocked = std::thread::spawn(move || {
        post(addr, "/v1/run", "{\"bench\": \"go\", \"max_cycles\": 30000}")
    });
    // Wait until the job is actually queued.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (_, _, metrics) = get(addr, "/metrics");
        if metrics.contains("vpir_queue_depth 1") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job never queued:\n{metrics}");
        std::thread::sleep(Duration::from_millis(20));
    }

    let (status, head, body) =
        post(addr, "/v1/run", "{\"bench\": \"perl\", \"max_cycles\": 30000}");
    assert_eq!(status, 503, "{body}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    // With the queue at capacity the exported state is saturated.
    let (_, _, metrics) = get(addr, "/metrics");
    assert!(metrics.contains("vpir_shed_state 2"), "{metrics}");
    assert!(metrics.contains("vpir_requests_shed_total 1"), "{metrics}");

    shutdown(addr);
    server.join();
    // join() dropped the never-run job, hanging up the blocked
    // handler's channel: the first request resolves as a 500.
    let (status, _, body) = blocked.join().expect("blocked client");
    assert_eq!(status, 500, "{body}");
}

/// Compares a body with a file under `tests/fixtures/`.
fn pin(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(actual, want, "{name}");
}

#[test]
fn run_and_matrix_bodies_are_pinned_byte_for_byte() {
    let server = Server::start(small_config(1)).expect("start");
    let addr = server.addr();

    let asm = ".data\nx: .word 5\n.text\nla r9, x\nli r1, 3\nloop: lw r2, 0(r9)\n\
               addi r2, r2, 1\nsw r2, 0(r9)\naddi r1, r1, -1\nbne r1, r0, loop\nhalt";
    let run = format!(
        "{{\"asm\": \"{}\", \"config\": \"ir_early\", \"trace\": 4}}",
        asm.replace('\n', "\\n")
    );
    let (status, _, body) = post(addr, "/v1/run", &run);
    assert_eq!(status, 200, "{body}");
    pin("run_trace4.json", &body);

    let matrix = "{\"bench\": \"go\", \"scale\": 1, \"max_cycles\": 20000, \
                  \"limit_insts\": 5000, \"inject_fault\": \"go/base:panic\"}";
    let (status, _, body) = post(addr, "/v1/matrix", matrix);
    assert_eq!(status, 200, "{body}");
    pin("matrix_panic.json", &body);

    shutdown(addr);
    server.join();
}
