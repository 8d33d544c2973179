package gasnet

// Multiproc transport initialization: the process-per-rank shape of the
// UDP conduit. An in-process UDP world binds one loopback socket per rank
// and runs every rank's reader in one address space; a multiproc world is
// one rank of a world whose other ranks are separate OS processes, so this
// process owns exactly one socket — the one the bootstrap exchange
// (internal/boot) bound before publishing its address — and reaches every
// peer through the rank-indexed address table the exchange distributed.
//
// Everything above the socket is unchanged: the same frame formats, the
// same reliability layer (restricted to Self's rows of the pair grid), the
// same liveness detector (observing only on Self's behalf). What changes
// is the locality model — Config.NodeOf makes every non-self rank remote,
// so all RMA/atomic data movement takes the AM wire protocol, and no
// closure can ride a message to another rank.

import (
	"log"
	"net"
	"net/netip"
	"sync/atomic"
)

// initUDPMultiproc adopts the pre-bound socket from the configuration and
// starts its reader goroutine. The transport's rank-indexed slices keep
// their full length — the send path indexes them by rank — but only Self's
// entries are populated; a send "from" any other rank would be a bug the
// nil dereference makes loud.
func (d *Domain) initUDPMultiproc() error {
	self := d.cfg.Self
	tr := &udpTransport{
		conns: make([]*net.UDPConn, d.cfg.Ranks),
		send:  make([]packetConn, d.cfg.Ranks),
		read:  make([]batchConn, d.cfg.Ranks),
		addrs: make([]atomic.Pointer[netip.AddrPort], d.cfg.Ranks),
	}
	for r, a := range d.cfg.Peers {
		tr.setAddr(r, a)
	}
	conn := d.cfg.SelfConn
	// A generous receive buffer, exactly as on the in-process path: in a
	// process-per-rank world one socket absorbs the whole world's traffic
	// toward this rank, so the enlarged buffer matters even more.
	if err := conn.SetReadBuffer(4 << 20); err != nil {
		tr.rbufErr = err
		log.Printf("gasnet: udp conduit: SetReadBuffer(4MiB) failed (%v); "+
			"bursty collectives may drop datagrams on this host", err)
	}
	tr.conns[self] = conn
	bc := newBatchConn(conn, d)
	// The fault shim is always interposed (see initUDP): mid-run arming of
	// faults, partitions, and scenarios needs it, and idle it costs one
	// atomic load per write.
	var cfg FaultConfig
	if d.cfg.Fault != nil {
		cfg = *d.cfg.Fault
	}
	tr.send[self] = newFaultConn(bc, cfg, self, d)
	tr.read[self] = bc
	d.udp = tr
	if err := d.armScenarioFromEnv(); err != nil {
		tr.close()
		return err
	}
	startReliability(d)
	d.startReader(tr, d.eps[self], bc)
	return nil
}
