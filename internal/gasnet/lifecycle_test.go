package gasnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gupcxx/internal/obs"
)

// The peer-lifecycle table: every (state, event) pair of rank 0's view of
// rank 1, driven through the exact entry points the socket reader
// (receiveDatagram) and the reliability ticker (lv.tick, rel.sweep) use.
// The ticker goroutine is stopped before each case and the peer's socket
// never sends, so the test is the only thing moving the state machine:
// every case is exact, with no sleeps and no races.

const lcInc = 7 // the incarnation the whole world boots under

// lcDomain boots rank 0 of a 2-rank process-per-rank world whose rank 1
// is a bound socket nobody reads, seals two datagrams into the 0→1
// retransmission queue, and stops the ticker so the test drives it. The
// hour-long heartbeat keeps the ticker from running a detector round
// before it stops; lcSilence steps rounds explicitly.
func lcDomain(t *testing.T, rejoin bool, bus *obs.Bus) *Domain {
	t.Helper()
	clearNetEnv(t)
	conns := make([]*net.UDPConn, 2)
	peers := make([]netip.AddrPort, 2)
	for i := range conns {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		peers[i] = c.LocalAddr().(*net.UDPAddr).AddrPort()
	}
	t.Cleanup(func() { conns[1].Close() })
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP, Multiproc: true, Self: 0,
		Epoch: lcInc, Rejoin: rejoin, Peers: peers, SelfConn: conns[0],
		Events: bus, SegmentBytes: 1 << 12, Fault: &FaultConfig{},
		HeartbeatEvery: time.Hour,
		SuspectAfter:   2 * time.Hour,
		DownAfter:      4 * time.Hour,
	})
	t.Cleanup(d.Close)
	for range 2 {
		wb := d.arena.get(relHeaderLen)
		if ok, _ := d.rel.trySeal(0, 1, wb); !ok {
			t.Fatal("could not seal an in-flight datagram")
		}
		wb.release() // the retransmission queue holds the only reference
	}
	d.rel.shutdown()
	return d
}

// Wire frames as rank `from` would send them.
func lcHB(inc uint32) []byte {
	b := []byte{frameHB, 1, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(b[3:7], inc)
	return b
}

func lcBye(from uint16, inc uint32) []byte {
	b := make([]byte, byeFrameLen)
	b[0] = frameBye
	binary.LittleEndian.PutUint16(b[1:3], from)
	binary.LittleEndian.PutUint32(b[3:7], inc)
	return b
}

func lcProbe(from uint16, inc uint32, kind byte) []byte {
	b := make([]byte, probeFrameLen)
	b[0] = frameProbe
	binary.LittleEndian.PutUint16(b[1:3], from)
	binary.LittleEndian.PutUint32(b[3:7], inc)
	b[7] = kind
	return b
}

func lcJoin(from uint16, inc uint32, addr netip.AddrPort) []byte {
	a := addr.String()
	b := make([]byte, joinFrameMin, joinFrameMin+len(a))
	b[0] = frameJoin
	binary.LittleEndian.PutUint16(b[1:3], from)
	binary.LittleEndian.PutUint32(b[3:7], inc)
	b[7] = byte(len(a))
	return append(b, a...)
}

// lcFrame injects a frame exactly as rank 0's socket reader would.
func lcFrame(frame func(d *Domain) []byte) func(*Domain) {
	return func(d *Domain) {
		wb := d.arena.get(bufClassLarge)
		wb.b = append(wb.b[:0], frame(d)...)
		d.receiveDatagram(d.Endpoint(0), wb)
	}
}

// lcSilence runs one heartbeat round of the detector after rank 1 has
// been silent for exactly rounds rounds.
func lcSilence(rounds func(lv *liveness) int64) func(*Domain) {
	return func(d *Domain) {
		lv := d.lv
		lv.heardRound[lv.idx(0, 1)].Store(lv.round.Load() + 1 - rounds(lv))
		lv.tick(lv.lastHB + lv.hbEvery)
	}
}

// lcExhaust spends the retransmission budget of the oldest in-flight
// datagram and runs the sweep the ticker would.
func lcExhaust(d *Domain) {
	p := d.rel.pair(0, 1)
	p.mu.Lock()
	if len(p.inflight) > 0 {
		p.inflight[0].attempts = d.rel.maxAttempts
		p.inflight[0].deadline = 0
	}
	p.mu.Unlock()
	d.rel.sweep(clockRefresh())
}

// lcKinds is the peer-lifecycle event vocabulary; each kind but
// EvStaleIncarnation (edge-limited) and EvPartitionSuspected moves its
// Stats counter by exactly one.
var lcKinds = map[obs.EventKind]func(Stats) int64{
	obs.EvPeerSuspect:         func(s Stats) int64 { return s.PeersSuspected },
	obs.EvPeerDown:            func(s Stats) int64 { return s.PeersDown },
	obs.EvPeerRecovered:       nil,
	obs.EvPartitionSuspected:  nil,
	obs.EvPeerHealed:          func(s Stats) int64 { return s.PeersHealed },
	obs.EvPeerReadmitted:      func(s Stats) int64 { return s.PeersReadmitted },
	obs.EvStaleIncarnation:    nil,
	obs.EvRetransmitExhausted: func(s Stats) int64 { return s.RetransmitExhausted },
}

// lcView renders rank 0's view of rank 1 after an event: state/cause,
// recorded incarnation, death generation and epoch, the pair's down flag
// and in-flight count, then the counter and event deltas the event
// caused. It also checks that every lifecycle event names the pair and
// that the counters agree with the events.
func lcView(t *testing.T, d *Domain, before Stats, evs []obs.Event) string {
	t.Helper()
	lv := d.lv
	i := lv.idx(0, 1)
	var b strings.Builder
	b.WriteString([]string{"alive", "suspect", "down"}[lv.stateOf(0, 1)])
	if c := lv.downCause[i].Load(); c != causeNone {
		b.WriteString([]string{"", "/net", "/bye"}[c])
	}
	fmt.Fprintf(&b, " inc=%d", lv.incOf(0, 1))
	if deaths, _ := lv.genOf(0, 1); deaths != 0 || lv.epochOf(0) != 0 {
		fmt.Fprintf(&b, " deaths=%d epoch=%d", deaths, lv.epochOf(0))
	}
	p := d.rel.pair(0, 1)
	p.mu.Lock()
	if p.down {
		b.WriteString(" down")
	}
	fmt.Fprintf(&b, " inflight=%d", len(p.inflight))
	p.mu.Unlock()
	after := d.Stats()
	for _, c := range []struct {
		name string
		n    int64
	}{
		{"stale", after.StaleIncarnationDrops - before.StaleIncarnationDrops},
		{"probes", after.ProbesSent - before.ProbesSent},
		{"decode", after.DecodeErrors - before.DecodeErrors},
	} {
		if c.n != 0 {
			fmt.Fprintf(&b, " %s=%d", c.name, c.n)
		}
	}
	var names []string
	seen := map[obs.EventKind]int64{}
	for _, ev := range evs {
		if _, ok := lcKinds[ev.Kind]; !ok {
			continue
		}
		if ev.Rank != 0 || ev.Peer != 1 {
			t.Errorf("%v names pair %d→%d, want 0→1", ev.Kind, ev.Rank, ev.Peer)
		}
		names = append(names, ev.Kind.String())
		seen[ev.Kind]++
	}
	for k, ctr := range lcKinds {
		if ctr != nil && ctr(after)-ctr(before) != seen[k] {
			t.Errorf("counter for %v moved by %d, but %d events fired", k, ctr(after)-ctr(before), seen[k])
		}
	}
	if len(names) > 0 {
		b.WriteString(" ev=" + strings.Join(names, ","))
	}
	return b.String()
}

// TestPeerLifecycleTable pins the whole peer state machine: five
// starting states (Alive, Suspect, Down{net}, Down{bye}, never heard)
// against every event that can move it — traffic, the ticker's silence
// and exhaustion transitions, goodbyes, probes, joins, and forged or
// stale frames — asserting the resulting state, cause, incarnation,
// death generation, pair state and counter/event deltas.
func TestPeerLifecycleTable(t *testing.T) {
	// Starting views, in the column order of every row below.
	const (
		alive   = "alive inc=7 inflight=2"
		suspect = "suspect inc=7 inflight=2"
		downNet = "down/net inc=7 deaths=1 epoch=1 down inflight=2"
		downBye = "down/bye inc=7 deaths=1 epoch=1 down inflight=0"
		unheard = "alive inc=0 inflight=2"

		stale     = " stale=1 ev=stale-incarnation"
		recovered = " ev=peer-recovered"
		netDeath  = "down/net inc=7 deaths=1 epoch=1 down inflight=2 ev=peer-down,partition-suspected"
		exhausted = " deaths=1 epoch=1 down inflight=2 ev=retransmit-exhausted,peer-down,partition-suspected"
		byeDeath  = "down/bye inc=7 deaths=1 epoch=1 down inflight=0 ev=peer-down"
	)
	states := []struct {
		name  string
		setup func(*Domain)
	}{
		{"alive", func(*Domain) {}},
		{"suspect", func(d *Domain) { d.lv.markSuspect(0, 1) }},
		{"down-net", func(d *Domain) { d.lv.markDown(0, 1, causeNet) }},
		{"down-bye", func(d *Domain) { d.lv.markDown(0, 1, causeBye) }},
		{"unheard", nil}, // a rejoining rank has met no peer yet
	}
	frame := func(b []byte) func(*Domain) {
		return lcFrame(func(*Domain) []byte { return b })
	}
	join := func(inc uint32) func(*Domain) {
		return lcFrame(func(d *Domain) []byte { return lcJoin(1, inc, d.cfg.Peers[1]) })
	}
	events := []struct {
		name  string
		event func(*Domain)
		want  [5]string
	}{
		{"traffic", frame(lcHB(lcInc)),
			[5]string{alive, alive + recovered, downNet + stale, downBye + stale, "alive inc=7 inflight=2"}},
		{"silence-suspect", lcSilence(func(lv *liveness) int64 { return lv.suspectRounds }),
			[5]string{suspect + " ev=peer-suspect", suspect, downNet + " probes=1", downBye, unheard}},
		{"silence-down", lcSilence(func(lv *liveness) int64 { return lv.downRounds }),
			[5]string{netDeath, netDeath, downNet + " probes=1", downBye, unheard}},
		{"exhaustion", lcExhaust,
			[5]string{"down/net inc=7" + exhausted, "down/net inc=7" + exhausted, downNet, downBye, "down/net inc=0" + exhausted}},
		{"bye", frame(lcBye(1, lcInc)),
			[5]string{byeDeath, byeDeath, downNet + stale, downBye + stale, byeDeath}},
		{"bye-stale", frame(lcBye(1, lcInc-1)),
			[5]string{alive + stale, suspect + stale, downNet + stale, downBye + stale,
				"down/bye inc=6 deaths=1 epoch=1 down inflight=0 ev=peer-down"}},
		{"probe", frame(lcProbe(1, lcInc, probeKindProbe)),
			[5]string{alive + " probes=1", alive + " probes=1" + recovered,
				"alive inc=7 deaths=1 epoch=1 inflight=2 probes=1 ev=peer-healed", downBye, unheard}},
		{"probe-stale", frame(lcProbe(1, lcInc-1, probeKindProbe)),
			[5]string{alive + stale, suspect + stale, downNet + stale, downBye + stale, unheard}},
		{"probe-unknown", frame(lcProbe(1, lcInc+2, probeKindProbe)),
			[5]string{alive, suspect, downNet, downBye, unheard}},
		{"probe-zero", frame(lcProbe(1, 0, probeKindProbe)),
			[5]string{alive, suspect, downNet, downBye, unheard}},
		{"probe-ack", frame(lcProbe(1, lcInc, probeKindAck)),
			[5]string{alive, alive + recovered,
				"alive inc=7 deaths=1 epoch=1 inflight=2 ev=peer-healed", downBye, unheard}},
		{"probe-ack-stale", frame(lcProbe(1, lcInc-1, probeKindAck)),
			[5]string{alive + stale, suspect + stale, downNet + stale, downBye + stale, unheard}},
		{"probe-ack-unknown", frame(lcProbe(1, lcInc+2, probeKindAck)),
			[5]string{alive, suspect, downNet, downBye, unheard}},
		{"probe-ack-zero", frame(lcProbe(1, 0, probeKindAck)),
			[5]string{alive, suspect, downNet, downBye, unheard}},
		{"join-same", join(lcInc),
			[5]string{alive, alive + recovered, downNet, downBye, "alive inc=7 inflight=2"}},
		{"join-newer", join(lcInc + 1),
			[5]string{"alive inc=8 deaths=1 epoch=1 inflight=0 ev=peer-down,peer-readmitted",
				"alive inc=8 deaths=1 epoch=1 inflight=0 ev=peer-down,peer-readmitted",
				"alive inc=8 deaths=1 epoch=1 inflight=0 ev=peer-readmitted",
				"alive inc=8 deaths=1 epoch=1 inflight=0 ev=peer-readmitted",
				"alive inc=8 inflight=2"}},
		{"join-older", join(lcInc - 1),
			[5]string{alive + stale, suspect + stale, downNet + stale, downBye + stale, "alive inc=6 inflight=2"}},
		{"forged-probe", frame(lcProbe(9, lcInc, probeKindProbe)),
			[5]string{alive, suspect, downNet, downBye, unheard}},
		{"forged-join", lcFrame(func(d *Domain) []byte { return lcJoin(9, lcInc+1, d.cfg.Peers[1]) }),
			[5]string{alive + " decode=1", suspect + " decode=1", downNet + " decode=1", downBye + " decode=1", unheard + " decode=1"}},
		{"forged-self-bye", frame(lcBye(0, lcInc)),
			[5]string{alive, suspect, downNet, downBye, unheard}},
	}
	for _, ev := range events {
		for si, st := range states {
			t.Run(ev.name+"/"+st.name, func(t *testing.T) {
				bus := obs.NewBus(0)
				sub := bus.Subscribe()
				defer sub.Close()
				d := lcDomain(t, st.setup == nil, bus)
				if st.setup != nil {
					st.setup(d)
				}
				before := d.Stats()
				sub.Poll(nil) // setup events are not the case's
				ev.event(d)
				if got := lcView(t, d, before, sub.Poll(nil)); got != ev.want[si] {
					t.Errorf("\n got %s\nwant %s", got, ev.want[si])
				}
			})
		}
	}
}

// TestChurnInjectionRacesFlap: injection reads a peer's down state and
// death generation from one snapshot (Endpoint.PeerGen). A flapper drives
// rank 0's view of rank 1 through markDown(causeBye) and revive under a
// newer incarnation — the entry points TestPeerLifecycleTable drives one
// at a time — while the owner keeps issuing puts and polling. Rank 1
// never answers, so every put ends refused at injection or failed by a
// sweep: each callback runs exactly once, and after every death the op
// table drains to empty. A put that paired a pre-death "alive" with the
// post-death generation would outlive the sweep and keep it from
// draining.
func TestChurnInjectionRacesFlap(t *testing.T) {
	const flaps = 200
	d := lcDomain(t, false, nil)
	lv, ep0 := d.lv, d.Endpoint(0)

	var downs, drained atomic.Int32 // deaths published / deaths drained
	var issued atomic.Int64
	errc := make(chan error, 1)
	go func() {
		for k := int32(1); ; k++ {
			lv.markDown(0, 1, causeBye)
			downs.Store(k)
			deadline := time.Now().Add(10 * time.Second)
			for drained.Load() < k {
				if time.Now().After(deadline) {
					errc <- fmt.Errorf("death %d: %d ops outlived the sweep", k, ep0.PendingOps())
					return
				}
				runtime.Gosched()
			}
			if k == flaps {
				return
			}
			lv.revive(0, 1, lcInc+uint32(k), netip.AddrPort{})
			// Let the owner inject against the revived peer for a while,
			// so the next death lands amid injections.
			for from := issued.Load(); issued.Load() < from+16; {
				runtime.Gosched()
			}
		}
	}()

	var calls []int
	for drained.Load() < flaps {
		select {
		case err := <-errc:
			t.Fatal(err)
		default:
		}
		k := downs.Load()
		ep0.Poll() // sweeps every death published before k was read
		if k > drained.Load() && ep0.PendingOps() == 0 {
			drained.Store(k)
		}
		i := len(calls)
		calls = append(calls, 0)
		ep0.PutRemote(1, 0, []byte{1}, nil, func(error) { calls[i]++ })
		issued.Add(1)
	}
	for i, n := range calls {
		if n != 1 {
			t.Errorf("put %d completed %d times, want 1", i, n)
		}
	}
	if n := ep0.PendingOps(); n != 0 {
		t.Errorf("%d ops still pending", n)
	}
}
