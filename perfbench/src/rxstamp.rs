//! Kernel receive timestamps for the generator's socket (Linux).
//!
//! The generator stamps arrivals for latency.  Stamping with the clock when
//! the generator thread gets round to reading a datagram would add every
//! delay of that thread (it also sleeps between sends, and a shared host
//! deschedules it) to the relay's latency.  With `SO_TIMESTAMPNS` the
//! kernel stamps each datagram when it reaches the socket, so a late read
//! no longer reads as a slow relay.

use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::os::fd::AsRawFd;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

const SOL_SOCKET: i32 = 1;
const SO_TIMESTAMPNS: i32 = 35;
const SCM_TIMESTAMPNS: i32 = SO_TIMESTAMPNS;
const MSG_DONTWAIT: i32 = 0x40;
const AF_INET: u16 = 2;

#[repr(C)]
struct Iovec {
    base: *mut u8,
    len: usize,
}

#[repr(C)]
struct Msghdr {
    name: *mut u8,
    namelen: u32,
    iov: *mut Iovec,
    iovlen: usize,
    control: *mut u8,
    controllen: usize,
    flags: i32,
}

#[repr(C)]
struct Cmsghdr {
    len: usize,
    level: i32,
    kind: i32,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
    fn recvmsg(fd: i32, msg: *mut Msghdr, flags: i32) -> isize;
}

/// Asks the kernel to stamp every datagram arriving on `socket`.
pub fn enable(socket: &UdpSocket) -> io::Result<()> {
    let on: i32 = 1;
    // SAFETY: the fd is open for the lifetime of `socket`; the option value
    // points at a live `i32` whose size is passed as the length.
    let rc = unsafe {
        setsockopt(
            socket.as_raw_fd(),
            SOL_SOCKET,
            SO_TIMESTAMPNS,
            (&on as *const i32).cast(),
            4,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// One datagram: length, IPv4 source, and the kernel's arrival time (wall
/// clock), if the kernel attached one.
pub fn recv(
    socket: &UdpSocket,
    buf: &mut [u8],
) -> io::Result<(usize, SocketAddr, Option<SystemTime>)> {
    let mut name = [0u8; 16];
    let mut control = [0u64; 8];
    let mut iov = Iovec {
        base: buf.as_mut_ptr(),
        len: buf.len(),
    };
    let mut msg = Msghdr {
        name: name.as_mut_ptr(),
        namelen: name.len() as u32,
        iov: &mut iov,
        iovlen: 1,
        control: control.as_mut_ptr().cast(),
        controllen: std::mem::size_of_val(&control),
        flags: 0,
    };
    // SAFETY: every pointer in `msg` refers to a live local buffer (or
    // `buf`) whose length is given alongside it, and all of them outlive
    // the call; the kernel writes only within those lengths.
    let n = unsafe { recvmsg(socket.as_raw_fd(), &mut msg, MSG_DONTWAIT) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    let family = u16::from_ne_bytes([name[0], name[1]]);
    if family != AF_INET {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an IPv4 datagram",
        ));
    }
    let port = u16::from_be_bytes([name[2], name[3]]);
    let ip = Ipv4Addr::new(name[4], name[5], name[6], name[7]);
    let from = SocketAddr::V4(SocketAddrV4::new(ip, port));
    // Walk the control messages (each header is followed by its data,
    // padded to 8 bytes) looking for the timestamp.
    let bytes: &[u8] = {
        let len = msg.controllen.min(std::mem::size_of_val(&control));
        // SAFETY: `control` is a live array of at least `len` bytes.
        unsafe { std::slice::from_raw_parts(control.as_ptr().cast::<u8>(), len) }
    };
    let hdr = std::mem::size_of::<Cmsghdr>();
    let mut off = 0;
    let mut stamp = None;
    while off + hdr <= bytes.len() {
        let word = |at: usize| usize::from_ne_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let len = word(off);
        let level = i32::from_ne_bytes(bytes[off + 8..off + 12].try_into().expect("4 bytes"));
        let kind = i32::from_ne_bytes(bytes[off + 12..off + 16].try_into().expect("4 bytes"));
        if len < hdr || off + len > bytes.len() {
            break;
        }
        if level == SOL_SOCKET
            && kind == SCM_TIMESTAMPNS
            && len >= hdr + std::mem::size_of::<Timespec>()
        {
            let sec = word(off + hdr) as u64;
            let nsec = word(off + hdr + 8) as u64;
            stamp = Some(UNIX_EPOCH + Duration::new(sec, nsec as u32));
        }
        off += len.div_ceil(8) * 8;
    }
    Ok((n as usize, from, stamp))
}
