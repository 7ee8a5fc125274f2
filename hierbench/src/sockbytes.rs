//! Payload bytes a TCP connection carried, as the kernel counted them
//! (`TCP_INFO`, Linux ≥ 4.19).
//!
//! The wire client does not expose its socket, so the connection is found
//! among the process's open descriptors by its peer address. Counters
//! start at zero when the connection is made, so one reading before the
//! client is dropped gives everything it sent and received.

use std::ffi::{c_int, c_void};
use std::fs;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

extern "C" {
    fn getpeername(fd: c_int, addr: *mut c_void, len: *mut u32) -> c_int;
    fn getsockopt(fd: c_int, level: c_int, name: c_int, value: *mut c_void, len: *mut u32)
        -> c_int;
}

const IPPROTO_TCP: c_int = 6;
const TCP_INFO: c_int = 11;
const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
/// Offsets in `struct tcp_info` (`linux/tcp.h`).
const BYTES_RECEIVED: usize = 128;
/// `tcpi_bytes_sent` (Linux ≥ 4.19) counts a retransmitted byte again,
/// which loopback does not do; `tcpi_bytes_acked` would count the SYN.
const BYTES_SENT: usize = 200;

fn peer(fd: c_int) -> Option<SocketAddr> {
    let mut buf = [0_u8; 128];
    let mut len = buf.len() as u32;
    // SAFETY: `buf` is writable for `len` bytes and outlives the call;
    // the kernel writes at most `len` bytes and updates `len`.
    if unsafe { getpeername(fd, buf.as_mut_ptr().cast(), &mut len) } != 0 {
        return None;
    }
    let family = u16::from_ne_bytes([buf[0], buf[1]]);
    let port = u16::from_be_bytes([buf[2], buf[3]]);
    let ip = match family {
        AF_INET => IpAddr::V4(Ipv4Addr::new(buf[4], buf[5], buf[6], buf[7])),
        AF_INET6 => IpAddr::V6(Ipv6Addr::from(<[u8; 16]>::try_from(&buf[8..24]).ok()?)),
        _ => return None,
    };
    Some(SocketAddr::new(ip, port))
}

fn counter(info: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_ne_bytes(info.get(at..at + 8)?.try_into().ok()?))
}

/// `(sent, received)` payload bytes of the descriptor `fd`, a TCP socket.
pub fn socket_bytes(fd: c_int) -> Option<(u64, u64)> {
    let mut info = [0_u8; 256];
    let mut len = info.len() as u32;
    // SAFETY: `info` is writable for `len` bytes and outlives the call;
    // the kernel writes at most `len` bytes and updates `len`.
    let rc = unsafe {
        getsockopt(
            fd,
            IPPROTO_TCP,
            TCP_INFO,
            info.as_mut_ptr().cast(),
            &mut len,
        )
    };
    let filled = info.get(..len as usize).filter(|_| rc == 0)?;
    Some((
        counter(filled, BYTES_SENT)?,
        counter(filled, BYTES_RECEIVED)?,
    ))
}

/// `(sent, received)` payload bytes of this process's connection to
/// `server`; `None` unless exactly one such connection is open.
pub fn connection_bytes(server: SocketAddr) -> Option<(u64, u64)> {
    let mut found = None;
    for entry in fs::read_dir("/proc/self/fd").ok()?.flatten() {
        let Some(fd) = entry.file_name().to_str().and_then(|n| n.parse().ok()) else {
            continue;
        };
        if peer(fd) != Some(server) {
            continue;
        }
        let bytes = socket_bytes(fd)?;
        // A stream and its `try_clone` share one connection.
        if found.is_some_and(|f| f != bytes) {
            return None;
        }
        found = Some(bytes);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn counts_exactly_the_payload_bytes_of_a_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        client.write_all(&[1; 1000]).unwrap();
        let mut buf = [0; 1000];
        server.read_exact(&mut buf).unwrap();
        server.write_all(&[2; 37]).unwrap();
        client.read_exact(&mut buf[..37]).unwrap();
        assert_eq!(connection_bytes(addr), Some((1000, 37)));
    }
}
