//! The network-fault battery: deterministic seeded schedules of
//! misbehaving peers against a live server, with an honest session
//! interleaved throughout.
//!
//! Each schedule derives one abusive session from a seeded xorshift
//! stream — a mid-frame disconnect, a slowloris trickling one byte at a
//! time (sometimes completing, sometimes cut), a peer that stops reading
//! its replies and closes with data pending (an abrupt-reset
//! approximation: the kernel answers unread data with RST), garbage
//! bytes where a frame header belongs, or a wrong handshake magic. After
//! every abusive session the honest client performs a durable update and
//! a read-your-writes query, which must succeed; at the end the served
//! universe must be byte-identical to an oracle replaying only the
//! honest updates.
//!
//! The base seed mixes in `IDL_NETFAULT_SEED` (CI pins it); a failing
//! schedule's message embeds its seed, so reproduction is one env var.

use idl::Engine;
use idl_server::{protocol, serve, Client, ServerConfig, ServerHandle, WireRequest};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const SCHEDULES: u64 = 64;

const RULES: &str = ".v.all(.c=C, .k=K) <- .db.r(.c=C, .k=K) ;";

/// `IDL_NETFAULT_SEED` perturbs every schedule (CI pins it).
fn base_seed() -> u64 {
    std::env::var("IDL_NETFAULT_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// xorshift64* — tiny, seedable, good enough to scatter fault shapes.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn serve_stock() -> ServerHandle {
    let mut engine = Engine::new();
    engine.add_rules(RULES).unwrap();
    let cfg = ServerConfig {
        max_frame: 1 << 20,
        // Short enough that an abandoned mid-frame socket cannot outlive
        // the test run, long enough to never reap the honest session.
        idle_timeout: Duration::from_secs(20),
        ..ServerConfig::default()
    };
    serve(Box::new(engine), cfg).expect("server starts")
}

/// Raw connect + protocol handshake, consuming the Pong greeting.
fn raw_handshake(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.write_all(protocol::MAGIC)?;
    let mut magic = [0u8; 8];
    stream.read_exact(&mut magic)?;
    assert_eq!(&magic, protocol::MAGIC, "greeting magic");
    protocol::read_frame(&mut stream, 1 << 20, &mut |_| None)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    Ok(stream)
}

/// A serialized `Ping` frame (header + payload bytes).
fn ping_frame() -> Vec<u8> {
    let mut buf = Vec::new();
    protocol::write_frame(&mut buf, b"\"Ping\"", 4096).unwrap();
    buf
}

/// One seeded abusive session. Every branch must leave the *server*
/// healthy; the caller checks that with the honest client afterwards.
fn run_fault_schedule(addr: SocketAddr, seed: u64) {
    let mut rng = Rng::new(seed);
    match rng.below(6) {
        // Mid-frame disconnect: a header promising a payload that never
        // fully arrives, then EOF.
        0 => {
            let Ok(mut stream) = raw_handshake(addr) else { return };
            let declared = 16 + rng.below(1000) as u32;
            let mut partial = Vec::new();
            partial.extend_from_slice(&declared.to_le_bytes());
            partial.extend_from_slice(&(rng.next() as u32).to_le_bytes());
            let sent = rng.below(declared as u64) as usize;
            partial.extend(std::iter::repeat_n(0xAB, sent));
            let _ = stream.write_all(&partial);
        }
        // Slowloris, completing: a valid Ping trickles in one byte at a
        // time; incremental frame assembly must still answer Pong.
        1 => {
            let Ok(mut stream) = raw_handshake(addr) else { return };
            for byte in ping_frame() {
                stream.write_all(&[byte]).unwrap();
                std::thread::sleep(Duration::from_millis(1 + rng.below(2)));
            }
            let pong = protocol::read_frame(&mut stream, 1 << 20, &mut |_| None).unwrap();
            assert!(
                String::from_utf8(pong).unwrap().contains("Pong"),
                "schedule seed {seed}: slowloris ping got no Pong"
            );
        }
        // Slowloris, cut: the trickle stops partway and the peer leaves.
        2 => {
            let Ok(mut stream) = raw_handshake(addr) else { return };
            let frame = ping_frame();
            let cut = 1 + rng.below(frame.len() as u64 - 1) as usize;
            for &byte in &frame[..cut] {
                let _ = stream.write_all(&[byte]);
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Reader walks away: several requests go down the pipe, then the
        // socket closes with every reply unread (pending inbound data on
        // close makes the kernel send RST — the abrupt-reset shape).
        3 => {
            let Ok(mut stream) = raw_handshake(addr) else { return };
            for _ in 0..=rng.below(4) {
                let _ = stream.write_all(&ping_frame());
            }
            // no reads: replies are in flight when the socket drops
        }
        // Garbage where a frame belongs: either an absurd declared
        // length (E-TOO-LARGE) or a corrupt checksum (E-FRAME); the
        // abuser may or may not stay to read the error frame.
        4 => {
            let Ok(mut stream) = raw_handshake(addr) else { return };
            let mut junk = Vec::new();
            if rng.below(2) == 0 {
                junk.extend_from_slice(&u32::MAX.to_le_bytes());
                junk.extend_from_slice(&(rng.next() as u32).to_le_bytes());
            } else {
                junk.extend_from_slice(&6u32.to_le_bytes());
                junk.extend_from_slice(&(rng.next() as u32).to_le_bytes());
                junk.extend_from_slice(b"\"Ping\"");
            }
            let _ = stream.write_all(&junk);
            if rng.below(2) == 0 {
                let mut reply = Vec::new();
                let _ = stream.read_to_end(&mut reply);
                assert!(
                    !reply.is_empty(),
                    "schedule seed {seed}: garbage frame drew no error frame"
                );
            }
        }
        // Wrong handshake magic: the server hangs up without a frame.
        _ => {
            let Ok(mut stream) = TcpStream::connect(addr) else { return };
            let mut bogus = *protocol::MAGIC;
            bogus[rng.below(8) as usize] ^= 0x20;
            let _ = stream.write_all(&bogus);
            let mut reply = Vec::new();
            let _ = stream.read_to_end(&mut reply);
            // anything but a protocol greeting is fine; most of the time
            // the socket just closes
        }
    }
}

/// A peer pipelines a run of updates and leaves at once: the run is
/// dispatched as one group and reaches the writer after, or while, its
/// session goes away. The run still commits (a dispatched request runs to
/// completion), its replies go nowhere, and the honest session's service
/// is untouched.
#[test]
fn a_session_leaving_while_its_run_is_in_the_writer_disturbs_no_one() {
    let handle = serve_stock();
    let addr = handle.local_addr();
    let mut honest = Client::connect(addr).expect("honest client connects");
    const ROUNDS: u64 = 8;
    const RUN: u64 = 8;
    for round in 0..ROUNDS {
        let mut stream = raw_handshake(addr).expect("abusive peer connects");
        let mut burst = Vec::new();
        for k in 0..RUN {
            let src = format!("?.db.r+(.c=2, .k={})", round * RUN + k);
            protocol::send(&mut burst, &WireRequest::Update { src }, 1 << 20).unwrap();
        }
        stream.write_all(&burst).unwrap();
        drop(stream);
        let out = honest.update(&format!("?.db.r+(.c=1, .k={round})")).unwrap();
        assert_eq!(out.stats().unwrap().inserted, 1, "round {round}");
        let answers = honest.query("?.db.r(.c=1, .k=K), .v.all(.c=1, .k=K)").unwrap();
        assert_eq!(answers.len(), (round + 1) as usize, "round {round} read-your-writes");
    }
    // The last runs may still be on their way to the writer; once all
    // have committed, the served universe holds the honest writes and
    // every run.
    let deadline = Instant::now() + Duration::from_secs(10);
    while honest.stats().unwrap().server.group_commit_records < ROUNDS * (RUN + 1) {
        assert!(Instant::now() < deadline, "a run whose session left never committed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut oracle = Engine::new();
    oracle.add_rules(RULES).unwrap();
    for round in 0..ROUNDS {
        oracle.update(&format!("?.db.r+(.c=1, .k={round})")).unwrap();
        for k in 0..RUN {
            oracle.update(&format!("?.db.r+(.c=2, .k={})", round * RUN + k)).unwrap();
        }
    }
    oracle.refresh_views().unwrap();
    let served = honest.dump_universe().unwrap();
    assert_eq!(served, oracle.universe_json().unwrap(), "left runs diverged");
    drop(honest);
    let stats = handle.shutdown();
    assert_eq!(stats.sessions_active, 0, "sessions leaked");
    assert_eq!(stats.group_commit_records, ROUNDS * (RUN + 1));
}

#[test]
fn event_mode_survives_64_seeded_fault_schedules() {
    let handle = serve_stock();
    let addr = handle.local_addr();
    let mut honest = Client::connect(addr).expect("honest client connects");

    for i in 0..SCHEDULES {
        let seed = (0x5EED_0000 + i) ^ base_seed();
        run_fault_schedule(addr, seed);
        // The honest session keeps its full service level after every
        // abusive peer: a durable update, then read-your-writes through
        // base and view in one snapshot.
        let out = honest
            .update(&format!("?.db.r+(.c=1, .k={i})"))
            .unwrap_or_else(|e| panic!("schedule seed {seed}: honest update: {e}"));
        assert_eq!(out.stats().unwrap().inserted, 1, "schedule seed {seed}");
        let answers = honest
            .query("?.db.r(.c=1, .k=K), .v.all(.c=1, .k=K)")
            .unwrap_or_else(|e| panic!("schedule seed {seed}: honest query: {e}"));
        assert_eq!(answers.len(), (i + 1) as usize, "schedule seed {seed} read-your-writes");
    }

    // The final universe contains exactly the honest updates: no abusive
    // byte stream ever reached the engine as a mutation.
    let served = Client::connect(addr).unwrap().dump_universe().unwrap();
    let mut oracle = Engine::new();
    oracle.add_rules(RULES).unwrap();
    for i in 0..SCHEDULES {
        oracle.update(&format!("?.db.r+(.c=1, .k={i})")).unwrap();
    }
    oracle.refresh_views().unwrap();
    assert_eq!(served, oracle.universe_json().unwrap(), "faulted state diverged");

    drop(honest);
    let stats = handle.shutdown();
    assert_eq!(stats.sessions_active, 0, "sessions leaked");
    // Roughly one schedule in six writes garbage framing; demand that a
    // healthy share of those was rejected (not an exact count — a peer
    // that resets before the reactor reads may retract its bytes).
    assert!(stats.frames_rejected >= SCHEDULES / 8, "no frame ever rejected?");
}
