//! Wire packets.

use bytes::Bytes;
use tm_sim::mailbox::Message;
use tm_sim::Ns;

/// Node identifier: index into the cluster, `0..nprocs`.
pub type NodeId = usize;

/// Myrinet routing + CRC framing overhead per packet, bytes.
pub const FRAME_OVERHEAD: usize = 16;

/// A packet as it lands in the receiving NIC.
///
/// `dst_port` spans both transports' namespaces: GM uses `0..8`, the
/// sockets emulation uses `1024..`. Demultiplexing is the receiver layer's
/// job, just as GM demuxes by port and the kernel demuxes by socket.
#[derive(Debug, Clone)]
pub struct RawPacket {
    pub src: NodeId,
    pub src_port: u16,
    pub dst_port: u16,
    pub payload: Bytes,
    /// Virtual time at which the packet is fully in receiver NIC memory
    /// (wire + switch + receive-side NIC processing all included).
    pub arrival: Ns,
}

impl RawPacket {
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

impl Message for RawPacket {
    fn arrival(&self) -> Ns {
        self.arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_len_reflects_payload() {
        let p = RawPacket {
            src: 0,
            src_port: 1,
            dst_port: 2,
            payload: Bytes::from_static(b"hello"),
            arrival: Ns(0),
        };
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
    }
}
